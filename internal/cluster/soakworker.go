// Cluster soak: worker half. A soak worker is the same binary re-execed
// with WorkerEnv set; MaybeWorker intercepts it in main before flag
// parsing. The worker owns one fleet + cluster node and obeys a
// JSON-lines command protocol on stdin/stdout (replies in order, one
// line each; logs go to stderr):
//
//	-> {"ok":true,"addr":"127.0.0.1:41234"}          (banner: peer addr)
//	<- {"cmd":"peers","peers":[...]}                  full membership
//	-> {"ok":true}
//	<- {"cmd":"round","round":2,"households":[...],"sync":true}
//	-> {"ok":true,"events":184}
//	<- {"cmd":"remove","peer":"127.0.0.1:41235"}      dead peer
//	-> {"ok":true,"adopted":["h00003"]}
//	<- {"cmd":"sums","households":[...]}              digest pieces
//	-> {"ok":true,"sums":{"h00003":"ab12..."}}
//	<- {"cmd":"stop"}
//	-> {"ok":true}
//
// The driver is the membership oracle: workers never watch each other,
// they are told who died (remove) and what to serve (round households).
// That is what makes a multi-process run replayable — every membership
// decision happens at a deterministic point of the delivered event
// sequence, not at a wall-clock instant.
package cluster

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/fleet"
	"coreda/internal/store"
)

// WorkerEnv is the environment variable whose presence turns the
// process into a soak worker. Its value is the worker index.
const WorkerEnv = "COREDA_CLUSTER_WORKER"

// Worker parameter environment variables (set by the driver).
const (
	envSeed     = "COREDA_WORKER_SEED"
	envDir      = "COREDA_WORKER_DIR"
	envShards   = "COREDA_WORKER_SHARDS"
	envReplicas = "COREDA_WORKER_REPLICAS"
	envSessions = "COREDA_WORKER_SESSIONS"
)

// workerCmd is one driver command (see the package comment protocol).
type workerCmd struct {
	Cmd        string   `json:"cmd"`
	Peers      []string `json:"peers,omitempty"`
	Round      int      `json:"round,omitempty"`
	Households []string `json:"households,omitempty"`
	Sync       bool     `json:"sync,omitempty"`
	Peer       string   `json:"peer,omitempty"`
}

// workerReply is one worker response line.
type workerReply struct {
	OK      bool              `json:"ok"`
	Err     string            `json:"err,omitempty"`
	Addr    string            `json:"addr,omitempty"`
	Events  int               `json:"events,omitempty"`
	Adopted []string          `json:"adopted,omitempty"`
	Sums    map[string]string `json:"sums,omitempty"`
}

// MaybeWorker turns the process into a cluster soak worker when the
// driver's sentinel env var is set; it never returns in that case.
// Call first thing in main.
func MaybeWorker() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := workerMain(); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func envInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func envInt64(key string, def int64) int64 {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func workerMain() error {
	soak := fleet.SoakConfig{
		Seed:     envInt64(envSeed, 1),
		Sessions: envInt(envSessions, 0),
	}
	dir := os.Getenv(envDir)
	if dir == "" {
		return fmt.Errorf("%s not set", envDir)
	}
	local, err := store.NewDirBackend(dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	addr := ln.Addr().String()

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(workerReply{OK: true, Addr: addr}); err != nil {
		return err
	}

	var (
		node *Node
		f    *fleet.Fleet
	)
	defer func() {
		if f != nil {
			f.Stop()
		}
		if node != nil {
			node.Close()
		}
	}()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for in.Scan() {
		var cmd workerCmd
		if err := json.Unmarshal(in.Bytes(), &cmd); err != nil {
			return fmt.Errorf("bad command %q: %w", in.Text(), err)
		}
		var reply workerReply
		switch cmd.Cmd {
		case "peers":
			node, f, err = workerStart(cmd.Peers, addr, ln, local, soak)
			reply = workerReply{OK: err == nil}
		case "round":
			var events int
			events, err = workerRound(f, node, soak, cmd)
			reply = workerReply{OK: err == nil, Events: events}
		case "remove":
			var adopted []string
			adopted, err = node.RemovePeer(cmd.Peer)
			reply = workerReply{OK: err == nil, Adopted: adopted}
		case "sums":
			reply.Sums = make(map[string]string, len(cmd.Households))
			for _, h := range cmd.Households {
				sum, serr := fleet.CheckpointSum(local, h)
				if serr != nil {
					err = serr
					break
				}
				reply.Sums[h] = hex.EncodeToString(sum[:])
			}
			reply.OK = err == nil
		case "stop":
			if err := out.Encode(workerReply{OK: true}); err != nil {
				return err
			}
			return nil
		default:
			err = fmt.Errorf("unknown command %q", cmd.Cmd)
		}
		if err != nil {
			reply.OK, reply.Err = false, err.Error()
			err = nil
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}

// workerStart builds this worker's node + fleet once membership is
// known. The fleet mirrors fleet.Soak exactly (same NewSystem, same
// idle-eviction deadline) so per-household learning — and therefore the
// digest — is comparable with the single-process baseline.
func workerStart(peers []string, addr string, ln net.Listener, local store.Backend, soak fleet.SoakConfig) (*Node, *fleet.Fleet, error) {
	node, err := NewNode(NodeConfig{
		PeerAddr: addr,
		NodeAddr: addr, // no rtbridge traffic in the soak; identity only
		Peers:    peers,
		Replicas: envInt(envReplicas, 2),
		Local:    local,
		Seed:     soak.Seed,
		Listener: ln,
	})
	if err != nil {
		return nil, nil, err
	}
	f, err := fleet.New(fleet.Config{
		Shards:    envInt(envShards, 2),
		Backend:   node.Backend(),
		IdleEvict: defaultIdleEvict(soak),
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity: adl.TeaMaking(),
				UserName: household,
				Seed:     fleet.SeedFor(soak.Seed, household),
			}, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	f.Start()
	if err := node.Start(); err != nil {
		f.Stop()
		return nil, nil, err
	}
	return node, f, nil
}

// workerRound delivers session cmd.Round of every assigned household,
// flushes checkpoints and — unless the driver is about to kill us
// mid-barrier (sync false) — replicates them to the replica peers.
func workerRound(f *fleet.Fleet, node *Node, soak fleet.SoakConfig, cmd workerCmd) (int, error) {
	if f == nil {
		return 0, fmt.Errorf("round before peers")
	}
	events := 0
	for _, h := range cmd.Households {
		sessions := fleet.SoakSessions(soak, h)
		if cmd.Round >= len(sessions) {
			return events, fmt.Errorf("round %d beyond %d sessions", cmd.Round, len(sessions))
		}
		for _, ev := range sessions[cmd.Round] {
			if err := f.Deliver(ev); err != nil {
				return events, err
			}
			if ev.Kind == fleet.EventUsage {
				events++
			}
		}
	}
	f.Flush()
	if cmd.Sync {
		if err := node.Sync(); err != nil {
			return events, err
		}
	}
	return events, nil
}

// defaultIdleEvict mirrors fleet.Soak's IdleEvict defaulting (10
// minutes) so worker and baseline evict on the same deadline.
func defaultIdleEvict(cfg fleet.SoakConfig) time.Duration {
	if cfg.IdleEvict > 0 {
		return cfg.IdleEvict
	}
	return 10 * time.Minute
}
