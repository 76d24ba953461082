package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/sparse"
)

// subRand derives an independent generator for one input from the
// workload seed, so every random choice of a run follows from --seed.
func subRand(seed int64, parts ...int64) *rand.Rand {
	h := sha256.New()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	sum := h.Sum(nil)
	var s int64
	for _, b := range sum[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// matrixSpec is one input matrix of a front-end workload.
type matrixSpec struct {
	name   string
	family corpus.Family
	kind   string // grid2d | grid3d | rmat | band
	n, arg int    // generator size and parameter, as in corpus.GenSpec
}

// buildTreesMatrices are the four corpus families at the sizes where the
// front end, not file I/O or solver work, dominates.
var buildTreesMatrices = []matrixSpec{
	{"grid2d-245", corpus.FamilyGrid2D, "grid2d", 245, 0},
	{"grid3d-30", corpus.FamilyGrid3D, "grid3d", 30, 0},
	{"rmat-40000", corpus.FamilyPowerLaw, "rmat", 40000, 4},
	{"band-60000", corpus.FamilyBanded, "band", 60000, 8},
}

// matrixGridMatrices are small enough that solving every tree stays below
// the MinMem and Liu cliffs of larger deep trees.
var matrixGridMatrices = []matrixSpec{
	{"grid2d-118", corpus.FamilyGrid2D, "grid2d", 118, 0},
	{"grid3d-24", corpus.FamilyGrid3D, "grid3d", 24, 0},
	{"rmat-6000", corpus.FamilyPowerLaw, "rmat", 6000, 4},
	{"band-8000", corpus.FamilyBanded, "band", 8000, 10},
}

// generate builds the spec's pattern. Only the power-law family draws
// structure from the seed; the structured families keep their mesh and
// take new coefficient values (see writeMTX).
func (s matrixSpec) generate(seed int64, idx int) (*sparse.Matrix, error) {
	switch s.kind {
	case "grid2d":
		return sparse.Grid2D(s.n, s.n)
	case "grid3d":
		return sparse.Grid3D(s.n, s.n, s.n)
	case "rmat":
		return sparse.RMAT(subRand(seed, 1, int64(idx)), s.n, s.arg)
	case "band":
		return sparse.BandMatrix(s.n, s.arg)
	}
	return nil, fmt.Errorf("unknown matrix kind %q", s.kind)
}

// writeMTX writes the lower triangle of a symmetric pattern as a real
// symmetric MatrixMarket file with seeded values: a diagonally dominant
// matrix, as a finite-element or graph-Laplacian assembly would produce.
// It returns the SHA-256 of the bytes written.
func writeMTX(path string, m *sparse.Matrix, rng *rand.Rand) (string, int, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	bw := bufio.NewWriterSize(f, 1<<16)
	lower := 0
	for j := 0; j < m.N(); j++ {
		for _, i := range m.Col(j) {
			if int(i) >= j {
				lower++
			}
		}
	}
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n%% perfbench input\n%d %d %d\n", m.N(), m.N(), lower)
	var line []byte
	for j := 0; j < m.N(); j++ {
		col := m.Col(j)
		for _, i := range col {
			if int(i) < j {
				continue
			}
			v := -0.5 - rng.Float64()
			if int(i) == j {
				v = float64(2*len(col)) + rng.Float64()
			}
			line = strconv.AppendInt(line[:0], int64(i)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(j)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, v, 'g', 8, 64)
			line = append(line, '\n')
			bw.Write(line)
			h.Write(line)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), lower, nil
}

// mtxInput is one generated MatrixMarket file and its provenance.
type mtxInput struct {
	spec   matrixSpec
	n, nnz int
	digest string
}

// writeMatrices generates the specs' matrices from the seed and writes
// them as <dir>/<name>.mtx. The corpus entries point at those files; their
// generator fallback is deliberately invalid, so a missing file fails the
// run instead of silently generating.
func writeMatrices(dir string, specs []matrixSpec, seed int64) ([]corpus.Entry, []mtxInput, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries := make([]corpus.Entry, len(specs))
	inputs := make([]mtxInput, len(specs))
	for i, s := range specs {
		m, err := s.generate(seed, i)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		digest, lower, err := writeMTX(filepath.Join(dir, s.name+".mtx"), m, subRand(seed, 2, int64(i)))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		entries[i] = corpus.Entry{Name: s.name, Family: s.family, Gen: corpus.GenSpec{Kind: "missing-file"}}
		inputs[i] = mtxInput{spec: s, n: m.N(), nnz: lower, digest: digest}
	}
	return entries, inputs, nil
}
