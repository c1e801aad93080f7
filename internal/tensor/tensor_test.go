package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// naiveMatmul is the reference implementation tests compare against.
func naiveMatmul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	m.Randn(rng, 1)
	return m
}

func matEq(a, b *Mat, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatmulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		r, k, c := 1+rng.IntN(8), 1+rng.IntN(8), 1+rng.IntN(8)
		a, b := randMat(rng, r, k), randMat(rng, k, c)
		got := NewMat(r, c)
		Matmul(got, a, b)
		if !matEq(got, naiveMatmul(a, b), 1e-12) {
			t.Fatalf("trial %d: matmul mismatch (%dx%dx%d)", trial, r, k, c)
		}
	}
}

func TestMatmulNTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 50; trial++ {
		r, k, c := 1+rng.IntN(8), 1+rng.IntN(8), 1+rng.IntN(8)
		a, bT := randMat(rng, r, k), randMat(rng, c, k)
		got := NewMat(r, c)
		MatmulNT(got, a, bT)
		// Reference: transpose bT then multiply.
		b := NewMat(k, c)
		for i := 0; i < k; i++ {
			for j := 0; j < c; j++ {
				b.Set(i, j, bT.At(j, i))
			}
		}
		if !matEq(got, naiveMatmul(a, b), 1e-12) {
			t.Fatalf("trial %d: matmulNT mismatch", trial)
		}
	}
}

func TestMatmulTNMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		r, k, c := 1+rng.IntN(8), 1+rng.IntN(8), 1+rng.IntN(8)
		aT, b := randMat(rng, k, r), randMat(rng, k, c)
		got := NewMat(r, c)
		MatmulTN(got, aT, b)
		a := NewMat(r, k)
		for i := 0; i < r; i++ {
			for j := 0; j < k; j++ {
				a.Set(i, j, aT.At(j, i))
			}
		}
		if !matEq(got, naiveMatmul(a, b), 1e-12) {
			t.Fatalf("trial %d: matmulTN mismatch", trial)
		}
	}
}

func TestShapePanics(t *testing.T) {
	a, b := NewMat(2, 3), NewMat(4, 5)
	for name, fn := range map[string]func(){
		"matmul":   func() { Matmul(NewMat(2, 5), a, b) },
		"matmulNT": func() { MatmulNT(NewMat(2, 4), a, b) },
		"matmulTN": func() { MatmulTN(NewMat(3, 5), a, b) },
		"newmat":   func() { NewMat(0, 3) },
		"axpy":     func() { Axpy(1, []float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestAxpyScale(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, y)
	want := []float64{21, 42, 63}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("axpy = %v", y)
		}
	}
	Scale(0.5, y)
	if y[0] != 10.5 {
		t.Fatalf("scale = %v", y)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 0, 7)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 7 {
		t.Fatal("clone aliases original")
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMat(3, 4)
	m.Row(1)[2] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("Row is not a view")
	}
}

func TestZero(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(1, 1, 5)
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left data behind")
		}
	}
}

// Property: (A@B)@C == A@(B@C) within tolerance.
func TestMatmulAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed))
		n := 1 + rng.IntN(6)
		a, b, c := randMat(rng, n, n), randMat(rng, n, n), randMat(rng, n, n)
		ab, bc := NewMat(n, n), NewMat(n, n)
		Matmul(ab, a, b)
		Matmul(bc, b, c)
		left, right := NewMat(n, n), NewMat(n, n)
		Matmul(left, ab, c)
		Matmul(right, a, bc)
		return matEq(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatmul64(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x, y := randMat(rng, 64, 64), randMat(rng, 64, 64)
	out := NewMat(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Matmul(out, x, y)
	}
}
