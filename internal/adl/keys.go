package adl

import "sort"

// SortedToolIDs returns the keys of a tool-keyed map in ascending order.
// Ranging over such a map directly leaks Go's randomized iteration order
// into behaviour (error choice, node start order, output order); every
// order-sensitive loop must go through a sorted key slice instead, which
// the toolidmap analyzer enforces.
func SortedToolIDs[V any](m map[ToolID]V) []ToolID {
	ids := make([]ToolID, 0, len(m))
	for id := range m {
		ids = append(ids, id) //coreda:vet-ignore toolidmap keys are sorted before return
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
