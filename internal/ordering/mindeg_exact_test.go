package ordering

import (
	"container/heap"
	"fmt"

	"repro/internal/sparse"
)

// exactMinimumDegree is the exact-degree reference for AMD: a quotient
// graph with element absorption where every update recomputes the variable's exact
// external degree by scanning its full reach (Liu's MMD framework, without
// supervariable compression). At every step the variable of smallest exact
// external degree (ties broken by smallest index) is eliminated; its
// adjacent elements are absorbed into the newly formed element, so storage
// never exceeds the input pattern. Worst-case quadratic, so only suitable
// for the small patterns the AMD differential tests use.
func exactMinimumDegree(m *sparse.Matrix) ([]int, error) {
	if !m.IsSymmetric() {
		return nil, fmt.Errorf("ordering: minimum degree needs a symmetric pattern")
	}
	n := m.N()
	adjVar := make([][]int32, n) // variable–variable adjacency (original edges)
	adjEl := make([][]int32, n)  // variable–element adjacency
	for j := 0; j < n; j++ {
		col := m.Col(j)
		vars := make([]int32, 0, len(col))
		for _, i := range col {
			if int(i) != j {
				vars = append(vars, i)
			}
		}
		adjVar[j] = vars
	}
	var (
		eliminated = make([]bool, n)
		absorbed   = make([]bool, n)
		elemVars   = make([][]int32, n)
		degree     = make([]int, n)
		marker     = make([]int32, n)
		stamp      = int32(0)
	)
	pq := make(degHeap, 0, n)
	for v := 0; v < n; v++ {
		degree[v] = len(adjVar[v])
		pq = append(pq, degNode{degree[v], int32(v)})
	}
	heap.Init(&pq)
	perm := make([]int, 0, n)
	lv := make([]int32, 0, 64)
	for len(perm) < n {
		top := heap.Pop(&pq).(degNode)
		v := int(top.node)
		if eliminated[v] || top.deg != degree[v] {
			continue // stale heap entry
		}
		// Form the new element's variable list Lv = reach(v).
		stamp++
		marker[v] = stamp
		lv = lv[:0]
		for _, u := range adjVar[v] {
			if !eliminated[u] && marker[u] != stamp {
				marker[u] = stamp
				lv = append(lv, u)
			}
		}
		for _, e := range adjEl[v] {
			if absorbed[e] {
				continue
			}
			for _, u := range elemVars[e] {
				if !eliminated[u] && marker[u] != stamp {
					marker[u] = stamp
					lv = append(lv, u)
				}
			}
			absorbed[e] = true
			elemVars[e] = nil
		}
		eliminated[v] = true
		elemVars[v] = append([]int32(nil), lv...)
		adjVar[v], adjEl[v] = nil, nil
		perm = append(perm, v)
		// Update every variable in Lv: prune its lists, attach the new
		// element, recompute its exact external degree.
		for _, u := range lv {
			// Prune eliminated variables (their connectivity is now carried
			// by elements).
			vu := adjVar[u][:0]
			for _, w := range adjVar[u] {
				if !eliminated[w] {
					vu = append(vu, w)
				}
			}
			adjVar[u] = vu
			// Prune absorbed elements, attach v.
			eu := adjEl[u][:0]
			for _, e := range adjEl[u] {
				if !absorbed[e] {
					eu = append(eu, e)
				}
			}
			adjEl[u] = append(eu, int32(v))
			// Exact external degree: |vars(u) ∪ ∪ vars(elements of u)| − u.
			stamp++
			marker[u] = stamp
			d := 0
			for _, w := range adjVar[u] {
				if marker[w] != stamp {
					marker[w] = stamp
					d++
				}
			}
			for _, e := range adjEl[u] {
				for _, w := range elemVars[e] {
					if !eliminated[w] && marker[w] != stamp {
						marker[w] = stamp
						d++
					}
				}
			}
			degree[int(u)] = d
			heap.Push(&pq, degNode{d, u})
		}
	}
	return perm, nil
}

type degNode struct {
	deg  int
	node int32
}

type degHeap []degNode

func (h degHeap) Len() int { return len(h) }
func (h degHeap) Less(i, j int) bool {
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].node < h[j].node
}
func (h degHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *degHeap) Push(x interface{}) { *h = append(*h, x.(degNode)) }
func (h *degHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
