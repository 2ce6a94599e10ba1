package graph

import "sort"

// CommunityDetect partitions the vertices into communities using
// synchronous label propagation over the undirected skeleton of g, with
// deterministic tie-breaking (smallest label wins). It returns a community
// ID per vertex, with community IDs renumbered 0..k-1 in first-seen order.
// Listed in the paper's graph-algorithm API alongside BFS and subgraph
// matching (§4.3.1).
func (g *Graph) CommunityDetect(maxRounds int) []int {
	n := g.NumVertices()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	if maxRounds <= 0 {
		maxRounds = 32
	}
	next := make([]int, n)
	counts := make(map[int]int)
	for round := 0; round < maxRounds; round++ {
		changed := false
		for v := 0; v < n; v++ {
			clear(counts)
			for _, eid := range g.out[v] {
				counts[labels[g.edges[eid].Dst]]++
			}
			for _, eid := range g.in[v] {
				counts[labels[g.edges[eid].Src]]++
			}
			if len(counts) == 0 {
				next[v] = labels[v]
				continue
			}
			bestLabel, bestCount := labels[v], 0
			keys := make([]int, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				if counts[k] > bestCount {
					bestLabel, bestCount = k, counts[k]
				}
			}
			next[v] = bestLabel
			if next[v] != labels[v] {
				changed = true
			}
		}
		labels, next = next, labels
		if !changed {
			break
		}
	}
	// Renumber.
	renum := make(map[int]int)
	out := make([]int, n)
	for i, l := range labels {
		id, ok := renum[l]
		if !ok {
			id = len(renum)
			renum[l] = id
		}
		out[i] = id
	}
	return out
}
