package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// minMemoryAlgos are the MinMemory solvers every grid runs, in job order;
// orderBy is the one whose traversal the eviction policies replay.
var minMemoryAlgos = []string{"postorder", "liu", "minmem"}

const orderBy = "minmem"

// gridBudgets is the budget sweep of the grid workloads, the one the
// matrices experiment uses: the tree's largest single-node requirement and
// the midpoint between it and the optimal peak.
func gridBudgets(lo, opt int64) []int64 {
	if mid := (lo + opt) / 2; mid != lo {
		return []int64{lo, mid}
	}
	return []int64{lo}
}

// gridCheck verifies a grid's rows as they stream, one instance at a time
// (rows of an instance are contiguous in job order):
//   - minmem and liu certify the same optimal memory,
//   - postorder never beats that optimum,
//   - every policy row stays within its budget, and the budgets are the
//     sweep gridBudgets derives,
//   - the instance has exactly one row per expected job.
//
// attempted counts the jobs the grid should have produced; failed counts
// rows that broke a rule plus rows that are missing or surplus.
type gridCheck struct {
	policies int

	inst     string
	lo       int64
	open     bool
	mem      map[string]int64
	budgets  map[int64]int
	overflow int

	attempted, failed int
	instances         int
	digest            hash.Hash
	scratch           []byte
}

func newGridCheck(policies int) *gridCheck {
	return &gridCheck{policies: policies, mem: map[string]int64{}, budgets: map[int64]int{}, digest: sha256.New()}
}

// push checks one row; lo is its tree's largest single-node memory
// requirement (the lower budget of the sweep).
func (c *gridCheck) push(r schedule.Row, lo int64) {
	if !c.open || r.Instance != c.inst {
		c.finish()
		c.inst, c.lo, c.open = r.Instance, lo, true
		c.instances++
	}
	// The digest covers everything but the timing column, so two runs of
	// the same grid must agree on it byte for byte.
	r.Seconds = 0
	c.scratch = schedule.AppendRow(c.scratch[:0], r)
	c.digest.Write(c.scratch)
	if r.Kind == schedule.KindMinMemory.String() {
		if _, dup := c.mem[r.Algorithm]; dup {
			c.overflow++
		}
		c.mem[r.Algorithm] = r.Memory
		return
	}
	c.budgets[r.Budget]++
	if r.Memory > r.Budget {
		c.failed++
	}
}

// finish closes the open instance and charges its rule violations. A row
// at the wrong budget is one bad row, not a missing and a surplus one.
func (c *gridCheck) finish() {
	if !c.open {
		return
	}
	c.open = false
	expected := len(minMemoryAlgos)
	var missing, surplus int
	opt, haveOpt := c.mem["minmem"]
	for _, a := range minMemoryAlgos {
		if _, ok := c.mem[a]; !ok {
			missing++
		}
	}
	if liu, ok := c.mem["liu"]; ok && haveOpt && liu != opt {
		c.failed++
	}
	if po, ok := c.mem["postorder"]; ok && haveOpt && po < opt {
		c.failed++
	}
	if haveOpt {
		want := gridBudgets(c.lo, opt)
		expected += len(want) * c.policies
		for _, b := range want {
			got := c.budgets[b]
			missing += max(c.policies-got, 0)
			surplus += max(got-c.policies, 0)
			delete(c.budgets, b)
		}
	}
	for _, n := range c.budgets {
		surplus += n // rows at budgets outside the sweep
	}
	c.failed += max(missing, surplus+c.overflow)
	c.attempted += expected
	c.overflow = 0
	clear(c.mem)
	clear(c.budgets)
}

// sum returns the hex digest of every row checked so far.
func (c *gridCheck) sum() string { return hex.EncodeToString(c.digest.Sum(nil)) }

// digestList hashes a list of tree digests in order.
func digestList(ds []tree.Digest) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
