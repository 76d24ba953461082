package symbolic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sparse"
)

// TestColumnCountsMatchesNaive differentially pins the Gilbert–Ng–Peyton
// skeleton algorithm against the seed row-subtree traversal on structured
// and random patterns.
func TestColumnCountsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(name string, m *sparse.Matrix) {
		t.Helper()
		s := m.Symmetrize()
		parent, err := EliminationTree(s)
		if err != nil {
			t.Fatalf("%s: etree: %v", name, err)
		}
		got, err := ColumnCounts(s, parent)
		if err != nil {
			t.Fatalf("%s: gnp: %v", name, err)
		}
		want, err := columnCountsNaive(s, parent)
		if err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: counts diverge\n gnp  %v\n naive %v", name, got, want)
		}
	}
	g2, err := sparse.Grid2D(13, 11)
	if err != nil {
		t.Fatal(err)
	}
	check("grid2d", g2)
	g3, err := sparse.Grid3D(5, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	check("grid3d", g3)
	bm, err := sparse.BandMatrix(90, 7)
	if err != nil {
		t.Fatal(err)
	}
	check("band", bm)
	sf, err := sparse.ScaleFree(rng, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("scalefree", sf)
	rm, err := sparse.RMAT(rng, 130, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("rmat", rm)
	for trial := 0; trial < 30; trial++ {
		m, err := sparse.RandomSymmetric(rng, 1+rng.Intn(70), 5*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		check("random", m)
	}
}

func TestColumnCountsRejectsBadParent(t *testing.T) {
	m, err := sparse.BandMatrix(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ColumnCounts(m, []int{NoParent}); err == nil {
		t.Fatal("want error for wrong-length parent")
	}
	if _, err := ColumnCounts(m, []int{1, 0, 3, NoParent}); err == nil {
		t.Fatal("want error for parent[1] <= 1")
	}
}

// columnCountsNaive counts by row-subtree traversals in O(|L|) time: the
// differential reference for ColumnCounts.
func columnCountsNaive(m *sparse.Matrix, parent []int) ([]int64, error) {
	n := m.N()
	if len(parent) != n {
		return nil, fmt.Errorf("symbolic: parent vector has %d entries, want %d", len(parent), n)
	}
	counts := make([]int64, n)
	for j := range counts {
		counts[j] = 1 // diagonal
	}
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		mark[i] = i
		// Row i of L has nonzeros exactly on the row subtree: the union of
		// etree paths from each a_ij (j < i) up towards i.
		for _, jr := range m.Col(i) {
			j := int(jr)
			if j >= i {
				continue
			}
			for k := j; k != NoParent && mark[k] != i; k = parent[k] {
				counts[k]++ // ℓ_ik ≠ 0
				mark[k] = i
			}
		}
	}
	return counts, nil
}
