// Package apps holds the kernels of the paper's evaluation applications:
// the direct and iterative linear solvers of §4.1 and the DNA search of
// §4.2; the compute-cost models virtual time charges for them and for
// §4.3; and the launchers through which each application's Deploy
// (subpackages linsolve, dnadb and pipeline) starts its programs: Sim on
// virtual time for the figures, Inproc on the wall clock for the examples.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"pardis/internal/rts"
)

// GenerateSystem builds a strictly diagonally dominant n x n system (so
// Jacobi converges) with a known solution; it returns A (rows), b, and the
// exact solution x. Deterministic in the seed.
func GenerateSystem(n int, seed int64) (a [][]float64, b, x []float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([][]float64, n)
	x = make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	for i := range a {
		row := make([]float64, n)
		sum := 0.0
		for j := range row {
			if j != i {
				row[j] = rng.Float64()*2 - 1
				sum += math.Abs(row[j])
			}
		}
		row[i] = sum + 1 + rng.Float64()
		a[i] = row
	}
	b = make([]float64, n)
	for i, row := range a {
		for j, v := range row {
			b[i] += v * x[j]
		}
	}
	return a, b, x
}

// GaussSolve solves Ax = b by Gaussian elimination with partial pivoting —
// the §4.1 direct method. A and b are consumed (copied internally).
func GaussSolve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("apps: bad system dimensions %dx? b=%d", n, len(b))
	}
	// Working copies.
	m := make([][]float64, n)
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("apps: row %d has %d columns, want %d", i, len(row), n)
		}
		m[i] = append([]float64(nil), row...)
	}
	rhs := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if m[piv][col] == 0 {
			return nil, fmt.Errorf("apps: singular matrix at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		rhs[col], rhs[piv] = rhs[piv], rhs[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// JacobiSolve solves Ax = b iteratively to the given tolerance (max-norm of
// the update) — the §4.1 iterative method. The rows of A (and entries of b)
// held by this thread are localRows starting at global row first; the
// returned slice is this thread's portion of x, and iterations is the
// count performed. Collective over comm (nil = sequential).
func JacobiSolve(comm rts.Comm, first int, localA [][]float64, localB []float64, n int, tol float64, maxIter int) (localX []float64, iterations int, err error) {
	rows := len(localA)
	if len(localB) != rows {
		return nil, 0, fmt.Errorf("apps: %d rows but %d rhs entries", rows, len(localB))
	}
	x := make([]float64, n) // full current iterate, replicated
	next := make([]float64, rows)
	for it := 1; it <= maxIter; it++ {
		localDelta := 0.0
		for i := 0; i < rows; i++ {
			gi := first + i
			row := localA[i]
			s := localB[i]
			for j, v := range row {
				if j != gi {
					s -= v * x[j]
				}
			}
			if row[gi] == 0 {
				return nil, it, fmt.Errorf("apps: zero diagonal at row %d", gi)
			}
			next[i] = s / row[gi]
			if d := math.Abs(next[i] - x[gi]); d > localDelta {
				localDelta = d
			}
		}
		// Share updates: ring all-gather of the new local portions — the
		// iterate is the bulk payload of the loop, and the ring forwards
		// raw blocks without re-framing.
		delta := localDelta
		if comm != nil {
			parts := rts.AllGatherRing(comm, f64bytes(next))
			off := 0
			for _, p := range parts {
				vals := bytesF64(p)
				copy(x[off:off+len(vals)], vals)
				off += len(vals)
			}
			// Global max of delta: an 8-byte tree all-reduce (max is exact
			// under any combination order).
			delta = bytesF64(rts.AllReduce(comm, f64bytes([]float64{localDelta}), maxF64Op))[0]
		} else {
			copy(x[first:first+rows], next)
		}
		if delta < tol {
			out := make([]float64, rows)
			copy(out, x[first:first+rows])
			return out, it, nil
		}
	}
	out := make([]float64, rows)
	copy(out, x[first:first+rows])
	return out, maxIter, fmt.Errorf("apps: Jacobi did not converge in %d iterations", maxIter)
}

// MaxDiff reports the maximum absolute elementwise difference of two
// vectors — the §4.1 client's agreement metric.
func MaxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// maxF64Op folds two single-double payloads by maximum, in place in acc.
func maxF64Op(acc, in []byte) []byte {
	if bytesF64(in)[0] > bytesF64(acc)[0] {
		copy(acc, in)
	}
	return acc
}

func f64bytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func bytesF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
