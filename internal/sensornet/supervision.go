package sensornet

import (
	"slices"
	"time"
)

// Supervisor is the one node-liveness rule: a watched node silent for
// more than three intervals is offline until its next frame. Its owner
// calls Expire on its own sweep tick. Not safe for concurrent use.
type Supervisor[K comparable] struct {
	deadline time.Duration
	cmp      func(a, b K) int
	nodes    map[K]liveness
}

// liveness is one watched node's state.
type liveness struct {
	last    time.Duration // when its latest frame arrived
	offline bool          // declared offline, not yet recovered
}

// NewSupervisor returns a Supervisor whose Expire reports in cmp order.
func NewSupervisor[K comparable](interval time.Duration, cmp func(a, b K) int) *Supervisor[K] {
	return &Supervisor[K]{deadline: 3 * interval, cmp: cmp, nodes: make(map[K]liveness)}
}

// Watch records a frame from k at now, supervising k from now if it
// was not yet, and reports whether k was offline.
func (s *Supervisor[K]) Watch(k K, now time.Duration) (wasOffline bool) {
	wasOffline = s.nodes[k].offline
	s.nodes[k] = liveness{last: now}
	return wasOffline
}

// Frame is Watch for a node already supervised: frames from unwatched
// nodes are ignored.
func (s *Supervisor[K]) Frame(k K, now time.Duration) (wasOffline bool) {
	if _, ok := s.nodes[k]; !ok {
		return false
	}
	return s.Watch(k, now)
}

// Expire marks offline every online node silent for more than the
// deadline at now and returns their keys in cmp order.
func (s *Supervisor[K]) Expire(now time.Duration) (dead []K) {
	for k, l := range s.nodes {
		if !l.offline && now-l.last > s.deadline {
			s.nodes[k] = liveness{last: l.last, offline: true}
			dead = append(dead, k)
		}
	}
	slices.SortFunc(dead, s.cmp)
	return dead
}

// Forget stops supervising k.
func (s *Supervisor[K]) Forget(k K) { delete(s.nodes, k) }
