package rational

import (
	"encoding/json"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestZeroValueIsZero(t *testing.T) {
	var x Rat
	if !x.IsZero() {
		t.Fatalf("zero value IsZero() = false")
	}
	if got := x.Add(FromInt(3)); !got.Equal(FromInt(3)) {
		t.Fatalf("0 + 3 = %v, want 3", got)
	}
	if got := x.Mul(FromInt(5)); !got.IsZero() {
		t.Fatalf("0 * 5 = %v, want 0", got)
	}
	if x.String() != "0" {
		t.Fatalf("zero String() = %q, want \"0\"", x.String())
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Div by zero did not panic")
		}
	}()
	FromInt(1).Div(Zero())
}

func TestInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Inv of zero did not panic")
		}
	}()
	Zero().Inv()
}

func TestArithmeticBasics(t *testing.T) {
	tests := []struct {
		name string
		got  Rat
		want Rat
	}{
		{"add", New(1, 2).Add(New(1, 3)), New(5, 6)},
		{"sub", New(1, 2).Sub(New(1, 3)), New(1, 6)},
		{"mul", New(2, 3).Mul(New(3, 4)), New(1, 2)},
		{"div", New(2, 3).Div(New(4, 3)), New(1, 2)},
		{"inv", New(3, 7).Inv(), New(7, 3)},
		{"normalize", New(4, 8), New(1, 2)},
		{"negden", New(1, -2), New(-1, 2)},
		{"max", Max(New(1, 2), New(2, 3)), New(2, 3)},
		{"min", Min(New(1, 2), New(2, 3)), New(1, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.Equal(tt.want) {
				t.Fatalf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestComparisons(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatalf("Cmp wrong")
	}
	if FromInt(-2).Sign() != -1 || Zero().Sign() != 0 || One().Sign() != 1 {
		t.Fatalf("Sign wrong")
	}
}

func TestStringAndFormat(t *testing.T) {
	if got := New(7, 2).String(); got != "7/2" {
		t.Fatalf("String = %q, want 7/2", got)
	}
	if got := FromInt(9).String(); got != "9" {
		t.Fatalf("String = %q, want 9", got)
	}
	if got := New(1, 3).Format(4); got != "0.3333" {
		t.Fatalf("Format = %q, want 0.3333", got)
	}
}

func TestParse(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Rat
		ok   bool
	}{
		{"3/4", New(3, 4), true},
		{"-3/4", New(-3, 4), true},
		{"5", FromInt(5), true},
		{"0.25", New(1, 4), true},
		{"", Zero(), false},
		{"a/b", Zero(), false},
	} {
		got, err := Parse(tt.in)
		if tt.ok != (err == nil) {
			t.Fatalf("Parse(%q) err = %v, want ok=%v", tt.in, err, tt.ok)
		}
		if err == nil && !got.Equal(tt.want) {
			t.Fatalf("Parse(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestTextRoundTripJSON(t *testing.T) {
	type wrapper struct {
		R Rat `json:"r"`
	}
	in := wrapper{New(22, 7)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out wrapper
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !out.R.Equal(in.R) {
		t.Fatalf("round trip: got %v, want %v", out.R, in.R)
	}
}

func TestUnmarshalTextRejectsGarbage(t *testing.T) {
	var r Rat
	if err := r.UnmarshalText([]byte("not-a-rat")); err == nil {
		t.Fatalf("UnmarshalText accepted garbage")
	}
}

func TestImmutability(t *testing.T) {
	a := New(1, 2)
	b := a.Add(One())
	if !a.Equal(New(1, 2)) {
		t.Fatalf("Add mutated receiver: %v", a)
	}
	if !b.Equal(New(3, 2)) {
		t.Fatalf("Add result wrong: %v", b)
	}
}

func TestFromBigCopies(t *testing.T) {
	src := big.NewRat(3, 4)
	r := FromBig(src)
	src.SetInt64(7)
	if !r.Equal(New(3, 4)) {
		t.Fatalf("FromBig did not copy: %v", r)
	}
}

// randRat generates a random non-degenerate rational for property tests.
func randRat(rng *rand.Rand) Rat {
	num := rng.Int64N(2001) - 1000
	den := rng.Int64N(1000) + 1
	return New(num, den)
}

func TestPropertyFieldLaws(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		a, b, c := randRat(rng), randRat(rng), randRat(rng)
		if !a.Add(b).Equal(b.Add(a)) {
			t.Fatalf("add not commutative: %v %v", a, b)
		}
		if !a.Mul(b).Equal(b.Mul(a)) {
			t.Fatalf("mul not commutative: %v %v", a, b)
		}
		if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
			t.Fatalf("add not associative")
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			t.Fatalf("mul does not distribute")
		}
		if !a.Sub(a).IsZero() {
			t.Fatalf("a-a != 0")
		}
		if !a.IsZero() && !a.Div(a).Equal(One()) {
			t.Fatalf("a/a != 1")
		}
		if !a.IsZero() && !a.Inv().Inv().Equal(a) {
			t.Fatalf("inv not involutive: %v", a)
		}
	}
}

func TestPropertyOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		a, b := randRat(rng), randRat(rng)
		// Exactly one of <, ==, > holds.
		n := 0
		if a.Cmp(b) < 0 {
			n++
		}
		if a.Equal(b) {
			n++
		}
		if b.Cmp(a) < 0 {
			n++
		}
		if n != 1 {
			t.Fatalf("trichotomy violated for %v, %v", a, b)
		}
		// Adding a positive value increases.
		p := New(rng.Int64N(100)+1, rng.Int64N(100)+1)
		if a.Cmp(a.Add(p)) >= 0 {
			t.Fatalf("a < a+p violated: %v %v", a, p)
		}
	}
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(num int64, den uint32) bool {
		d := int64(den%100000) + 1
		r := New(num%1_000_000, d)
		back, err := Parse(r.String())
		return err == nil && back.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkCmp(b *testing.B) {
	x, y := New(355, 113), New(356, 113)
	for i := 0; i < b.N; i++ {
		_ = x.Cmp(y)
	}
}

func TestNumDen(t *testing.T) {
	r := New(6, -8) // normalizes to -3/4
	if r.Num().Int64() != -3 || r.Den().Int64() != 4 {
		t.Fatalf("Num/Den = %v/%v", r.Num(), r.Den())
	}
	// Returned values are copies.
	n := r.Num()
	n.SetInt64(99)
	if r.Num().Int64() != -3 {
		t.Fatalf("Num exposed internals")
	}
	var zero Rat
	if zero.Num().Sign() != 0 || zero.Den().Int64() != 1 {
		t.Fatalf("zero Num/Den = %v/%v", zero.Num(), zero.Den())
	}
}

func TestFloat64(t *testing.T) {
	if got := New(1, 4).Float64(); got != 0.25 {
		t.Fatalf("Float64 = %v", got)
	}
	if got := Zero().Float64(); got != 0 {
		t.Fatalf("zero Float64 = %v", got)
	}
}

func TestMinMaxBothBranches(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !Max(a, b).Equal(b) || !Max(b, a).Equal(b) {
		t.Fatalf("Max wrong")
	}
	if !Min(a, b).Equal(a) || !Min(b, a).Equal(a) {
		t.Fatalf("Min wrong")
	}
	if !Max(a, a).Equal(a) || !Min(a, a).Equal(a) {
		t.Fatalf("Max/Min of equal values wrong")
	}
}

func TestFromBigNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("FromBig(nil) did not panic")
		}
	}()
	FromBig(nil)
}
