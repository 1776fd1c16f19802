package apps

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pardis/internal/rts"
)

func TestGaussSolveRecoversKnownSolution(t *testing.T) {
	for _, n := range []int{1, 2, 10, 50} {
		a, b, want := GenerateSystem(n, 42)
		x, err := GaussSolve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxDiff(x, want); d > 1e-8 {
			t.Fatalf("n=%d: max diff %v", n, d)
		}
	}
}

func TestGaussSolveSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	if _, err := GaussSolve(a, []float64{1, 2}); err == nil {
		t.Fatal("want singular error")
	}
	if _, err := GaussSolve(nil, nil); err == nil {
		t.Fatal("want dimension error")
	}
	if _, err := GaussSolve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("want ragged error")
	}
}

func TestGaussSolvePivoting(t *testing.T) {
	// Zero on the initial diagonal forces a pivot.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := GaussSolve(a, []float64{3, 7})
	if err != nil || x[0] != 7 || x[1] != 3 {
		t.Fatalf("x = %v, err = %v", x, err)
	}
}

func TestJacobiMatchesDirect(t *testing.T) {
	const n = 40
	a, b, want := GenerateSystem(n, 7)
	for _, p := range []int{1, 2, 4} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			got := make([]float64, n)
			rts.NewChanGroup("h", p).Run(func(th rts.Thread) {
				// Block rows.
				per := n / p
				first := th.Rank() * per
				count := per
				if th.Rank() == p-1 {
					count = n - first
				}
				lx, iters, err := JacobiSolve(th, first, a[first:first+count], b[first:first+count], n, 1e-10, 10000)
				if err != nil {
					panic(err)
				}
				if iters <= 0 {
					panic("no iterations recorded")
				}
				copy(got[first:first+count], lx)
			})
			if d := MaxDiff(got, want); d > 1e-8 {
				t.Fatalf("max diff %v", d)
			}
		})
	}
}

func TestJacobiDivergenceReported(t *testing.T) {
	// Non-dominant matrix: Jacobi must hit maxIter and say so.
	a := [][]float64{{1, 10}, {10, 1}}
	b := []float64{1, 1}
	_, _, err := JacobiSolve(nil, 0, a, b, 2, 1e-12, 50)
	if err == nil || !strings.Contains(err.Error(), "converge") {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerateSystemDeterministic(t *testing.T) {
	a1, b1, x1 := GenerateSystem(8, 99)
	a2, b2, x2 := GenerateSystem(8, 99)
	for i := range a1 {
		for j := range a1[i] {
			if a1[i][j] != a2[i][j] {
				t.Fatal("matrix not deterministic")
			}
		}
		if b1[i] != b2[i] || x1[i] != x2[i] {
			t.Fatal("vectors not deterministic")
		}
	}
}

func TestQuickDiagonalDominanceHolds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%20 + 1
		a, _, _ := GenerateSystem(n, seed)
		for i, row := range a {
			sum := 0.0
			for j, v := range row {
				if j != i {
					sum += math.Abs(v)
				}
			}
			if math.Abs(row[i]) <= sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDNADeterministicAndWellFormed(t *testing.T) {
	db1 := GenerateDNA(50, 20, 3)
	db2 := GenerateDNA(50, 20, 3)
	for i := range db1 {
		if db1[i] != db2[i] {
			t.Fatal("not deterministic")
		}
		if len(db1[i]) != 20 {
			t.Fatal("bad length")
		}
		for _, c := range db1[i] {
			if !strings.ContainsRune(Bases, c) {
				t.Fatalf("bad base %c", c)
			}
		}
	}
}

func TestDerivatives(t *testing.T) {
	q := "ACG"
	if d := Derivatives(q, Exact); len(d) != 1 || d[0] != q {
		t.Fatalf("exact = %v", d)
	}
	// Transpositions of ACG: CAG, AGC.
	tr := Derivatives(q, Transposition)
	if len(tr) != 2 || tr[0] != "CAG" || tr[1] != "AGC" {
		t.Fatalf("transpositions = %v", tr)
	}
	// Deletions: CG, AG, AC.
	del := Derivatives(q, Deletion)
	if len(del) != 3 {
		t.Fatalf("deletions = %v", del)
	}
	// Substitutions: 3 positions x 3 other bases.
	sub := Derivatives(q, Substitution)
	if len(sub) != 9 {
		t.Fatalf("substitutions = %v", sub)
	}
	// Additions: 4 slots x 4 bases minus duplicates.
	add := Derivatives(q, Addition)
	seen := map[string]bool{}
	for _, s := range add {
		if len(s) != 4 || seen[s] {
			t.Fatalf("additions malformed: %v", add)
		}
		seen[s] = true
	}
}

func TestSearchDB(t *testing.T) {
	db := []string{"AAACGAA", "TTTTTTT", "ACAGTTT", "CCCCCCC"}
	if got := SearchDB(db, "ACG", Exact); len(got) != 1 || got[0] != "AAACGAA" {
		t.Fatalf("exact = %v", got)
	}
	// CAG is a transposition of ACG; ACAGTTT contains CAG.
	if got := SearchDB(db, "ACG", Transposition); len(got) != 1 || got[0] != "ACAGTTT" {
		t.Fatalf("transpose = %v", got)
	}
	all := SearchAll(db, "ACG")
	if len(all[Exact]) != 1 || len(all[Transposition]) != 1 {
		t.Fatalf("all = %v", all)
	}
}

func TestCostModelsSane(t *testing.T) {
	// The Figure 2 single-server run at n=1200 (direct + iterative
	// time-sharing HOST 1's four nodes, i.e. two nodes each) lands near
	// the ~190 s top of the paper's chart.
	sameServer := PerThread(DirectSolveWork(1200), 2)
	if ti := PerThread(JacobiWork(1200, DefaultJacobiIters(1200)), 2); ti > sameServer {
		sameServer = ti
	}
	if sameServer < 140 || sameServer > 250 {
		t.Fatalf("same-server n=1200 = %v s, want ~190", sameServer)
	}
	// Iterative slower than direct on equal hardware (the paper's premise).
	if JacobiWork(800, DefaultJacobiIters(800)) <= DirectSolveWork(800) {
		t.Fatal("iterative must be the slower component on equal hardware")
	}
	listWork := 0.0
	for _, w := range ListServerWeights {
		listWork += w
	}
	if listWork != 75 { // 30 wall-seconds on the 2.5x Power Challenge
		t.Fatalf("list work = %v reference-seconds, want 75", listWork)
	}
	// Count-based placement: max load at P=3 exceeds max at P=2, which is
	// what produces the paper's dip in the difference curve.
	maxLoad := func(p int) float64 {
		loads := make([]float64, p)
		for k := 0; k < int(NumDerivatives); k++ {
			loads[k%p] += ListServerWeights[k]
		}
		m := 0.0
		for _, l := range loads {
			if l > m {
				m = l
			}
		}
		return m
	}
	if maxLoad(3) <= maxLoad(2) {
		t.Fatalf("weights %v do not reproduce the 2->3 processor dip", ListServerWeights)
	}
}
