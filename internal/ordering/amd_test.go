package ordering

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// checkPerm fails unless perm is a permutation of 0..n-1.
func checkPerm(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm has %d entries, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("perm is not a permutation: %v", perm)
		}
		seen[v] = true
	}
}

// fill computes the Cholesky factor size of m reordered by perm.
func fill(t *testing.T, m *sparse.Matrix, perm []int) int64 {
	t.Helper()
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatalf("permute: %v", err)
	}
	parent, err := symbolic.EliminationTree(pm)
	if err != nil {
		t.Fatalf("etree: %v", err)
	}
	counts, err := symbolic.ColumnCounts(pm, parent)
	if err != nil {
		t.Fatalf("counts: %v", err)
	}
	return symbolic.FactorNNZ(counts)
}

func TestAMDIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mats := map[string]*sparse.Matrix{}
	add := func(name string, m *sparse.Matrix, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mats[name] = m
	}
	g2, err := sparse.Grid2D(17, 23)
	add("grid2d", g2, err)
	g3, err := sparse.Grid3D(7, 6, 5)
	add("grid3d", g3, err)
	rs, err := sparse.RandomSymmetric(rng, 200, 6)
	add("random", rs, err)
	sf, err := sparse.ScaleFree(rng, 150, 3)
	add("scalefree", sf, err)
	bm, err := sparse.BandMatrix(120, 9)
	add("band", bm, err)
	for name, m := range mats {
		perm, err := AMD(m)
		if err != nil {
			t.Fatalf("%s: AMD: %v", name, err)
		}
		checkPerm(t, perm, m.N())
	}
}

func TestAMDTinyAndEmpty(t *testing.T) {
	for n := 1; n <= 3; n++ {
		cols := make([][]int, n)
		for j := range cols {
			cols[j] = []int{j}
		}
		m, err := sparse.New(n, cols)
		if err != nil {
			t.Fatal(err)
		}
		perm, err := AMD(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkPerm(t, perm, n)
	}
}

func TestAMDStarOrdersLeavesFirst(t *testing.T) {
	// Star graph: center 0 has degree n-1, every leaf degree 1. All leaves
	// must be eliminated before the center.
	const n = 12
	cols := make([][]int, n)
	cols[0] = []int{0}
	for i := 1; i < n; i++ {
		cols[0] = append(cols[0], i)
		cols[i] = []int{0, i}
	}
	m, err := sparse.New(n, cols)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := AMD(m)
	if err != nil {
		t.Fatal(err)
	}
	checkPerm(t, perm, n)
	// The center cannot be eliminated while more than one leaf remains
	// (once a single leaf is left the two tie at degree 1).
	for k := 0; k < n-2; k++ {
		if perm[k] == 0 {
			t.Fatalf("center eliminated at position %d of %v", k, perm)
		}
	}
}

func TestAMDChainNoFill(t *testing.T) {
	// A path graph has a zero-fill minimum-degree ordering; AMD must find
	// one (fill == input nnz of the lower triangle).
	const n = 64
	cols := make([][]int, n)
	for i := 0; i < n; i++ {
		cols[i] = append(cols[i], i)
		if i > 0 {
			cols[i] = append(cols[i], i-1)
		}
		if i < n-1 {
			cols[i] = append(cols[i], i+1)
		}
	}
	m, err := sparse.New(n, cols)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := AMD(m)
	if err != nil {
		t.Fatal(err)
	}
	checkPerm(t, perm, n)
	if got := fill(t, m, perm); got != 2*n-1 {
		t.Fatalf("chain fill = %d, want %d (zero fill)", got, 2*n-1)
	}
}

func TestAMDMatchesExactFillQuality(t *testing.T) {
	// On structured and random patterns, AMD's fill must stay within a
	// modest factor of the exact-degree reference (both are heuristics, so
	// exact equality is not expected — AMD can win or lose slightly).
	rng := rand.New(rand.NewSource(42))
	check := func(name string, m *sparse.Matrix) {
		t.Helper()
		amdPerm, err := AMD(m)
		if err != nil {
			t.Fatalf("%s: AMD: %v", name, err)
		}
		checkPerm(t, amdPerm, m.N())
		exactPerm, err := exactMinimumDegree(m)
		if err != nil {
			t.Fatalf("%s: exact: %v", name, err)
		}
		fa, fe := fill(t, m, amdPerm), fill(t, m, exactPerm)
		if float64(fa) > 1.3*float64(fe)+float64(m.N()) {
			t.Errorf("%s: AMD fill %d vs exact %d exceeds tolerance", name, fa, fe)
		}
	}
	g2, err := sparse.Grid2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	check("grid2d", g2)
	bm, err := sparse.BandMatrix(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	check("band", bm)
	for trial := 0; trial < 10; trial++ {
		rs, err := sparse.RandomSymmetric(rng, 60, 4)
		if err != nil {
			t.Fatal(err)
		}
		check("random", rs)
	}
}

func TestAMDRejectsAsymmetric(t *testing.T) {
	m, err := sparse.New(3, [][]int{{0, 1}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AMD(m); err == nil {
		t.Fatal("want error for asymmetric pattern")
	}
}

// fuzzPattern decodes fuzz bytes into a small symmetric pattern with a full
// diagonal: byte k toggles edge k of the strict upper triangle of an n×n
// pattern, row-major.
func fuzzPattern(data []byte) *sparse.Matrix {
	n := 2 + int(len(data)%63)
	if n > 64 {
		n = 64
	}
	cols := make([][]int, n)
	for j := range cols {
		cols[j] = []int{j}
	}
	k := 0
	for i := 0; i < n && k < len(data); i++ {
		for j := i + 1; j < n && k < len(data); j++ {
			if data[k]&1 == 1 {
				cols[j] = append(cols[j], i)
				cols[i] = append(cols[i], j)
			}
			k++
		}
	}
	m, err := sparse.New(n, cols)
	if err != nil {
		panic(err) // construction above is always valid
	}
	return m
}

func FuzzAMDVsExact(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1})
	f.Add(make([]byte, 64))
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzPattern(data)
		amdPerm, err := AMD(m)
		if err != nil {
			t.Fatalf("AMD: %v", err)
		}
		checkPerm(t, amdPerm, m.N())
		exactPerm, err := exactMinimumDegree(m)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		checkPerm(t, exactPerm, m.N())
		fa, fe := fill(t, m, amdPerm), fill(t, m, exactPerm)
		// Approximate degrees may lose to exact degrees, but never wildly
		// on patterns this small.
		if float64(fa) > 1.5*float64(fe)+float64(m.N()) {
			t.Errorf("AMD fill %d vs exact %d exceeds tolerance (n=%d)", fa, fe, m.N())
		}
	})
}
