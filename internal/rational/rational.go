// Package rational provides exact rational arithmetic for steady-state rate
// computations.
//
// The bandwidth-centric theorem (Theorem 1 of the paper) produces tree
// weights of the form
//
//	wtree = max(c0, 1 / (1/w0 + Σ 1/wi + ε/c_{p+1}))
//
// whose exact values are rationals with potentially large numerators and
// denominators. Floating point is not acceptable here: the steady-state
// onset detector compares measured windowed rates against the optimal rate
// and must never misclassify a tree because of rounding. This package wraps
// math/big with a small, value-oriented API sized to what the scheduler
// needs: construction from integers, field operations, exact comparisons,
// and ordering helpers.
//
// A Rat is immutable once created; all operations return new values. The
// zero value of Rat is the rational number 0/1 and is ready to use.
package rational

import (
	"fmt"
	"math/big"
)

// Rat is an immutable, exact rational number. The zero value is 0.
type Rat struct {
	// r is nil for the zero value, which denotes 0. Every method treats a
	// nil r as an exact zero so that var x Rat is usable without
	// initialization.
	r *big.Rat
}

// New returns the rational num/den. It panics if den is zero.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	return Rat{big.NewRat(num, den)}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{new(big.Rat).SetInt64(n)} }

// FromBig returns a Rat backed by a copy of r. It panics if r is nil.
func FromBig(r *big.Rat) Rat {
	if r == nil {
		panic("rational: nil big.Rat")
	}
	return Rat{new(big.Rat).Set(r)}
}

// Zero returns the rational 0.
func Zero() Rat { return Rat{} }

// One returns the rational 1.
func One() Rat { return FromInt(1) }

// big returns the receiver as a *big.Rat without copying. Callers must not
// mutate the result.
func (x Rat) big() *big.Rat {
	if x.r == nil {
		return new(big.Rat)
	}
	return x.r
}

// Num returns a copy of the numerator of x in lowest terms.
func (x Rat) Num() *big.Int { return new(big.Int).Set(x.big().Num()) }

// Den returns a copy of the denominator of x in lowest terms. It is always
// positive.
func (x Rat) Den() *big.Int { return new(big.Int).Set(x.big().Denom()) }

// Add returns x + y.
func (x Rat) Add(y Rat) Rat { return Rat{new(big.Rat).Add(x.big(), y.big())} }

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat { return Rat{new(big.Rat).Sub(x.big(), y.big())} }

// Mul returns x * y.
func (x Rat) Mul(y Rat) Rat { return Rat{new(big.Rat).Mul(x.big(), y.big())} }

// Div returns x / y. It panics if y is zero.
func (x Rat) Div(y Rat) Rat {
	if y.Sign() == 0 {
		panic("rational: division by zero")
	}
	return Rat{new(big.Rat).Quo(x.big(), y.big())}
}

// Inv returns 1/x. It panics if x is zero.
func (x Rat) Inv() Rat {
	if x.Sign() == 0 {
		panic("rational: inverse of zero")
	}
	return Rat{new(big.Rat).Inv(x.big())}
}

// Cmp compares x and y and returns -1, 0, or +1.
func (x Rat) Cmp(y Rat) int { return x.big().Cmp(y.big()) }

// Equal reports whether x == y exactly.
func (x Rat) Equal(y Rat) bool { return x.Cmp(y) == 0 }

// Sign returns -1, 0, or +1 according to the sign of x.
func (x Rat) Sign() int { return x.big().Sign() }

// IsZero reports whether x == 0.
func (x Rat) IsZero() bool { return x.Sign() == 0 }

// Max returns the larger of x and y.
func Max(x, y Rat) Rat {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// Min returns the smaller of x and y.
func Min(x, y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Float64 returns the nearest float64 to x. Intended for reporting and
// plotting only; scheduling decisions must use exact comparisons.
func (x Rat) Float64() float64 {
	f, _ := x.big().Float64()
	return f
}

// String renders x in lowest terms as "num/den", or "num" when den == 1.
func (x Rat) String() string {
	b := x.big()
	if b.IsInt() {
		return b.Num().String()
	}
	return b.RatString()
}

// Format renders x as a decimal with the given number of digits after the
// point, for human-readable reports.
func (x Rat) Format(prec int) string { return x.big().FloatString(prec) }

// Parse parses a rational from a string in "a/b" or integer or decimal
// form, as accepted by big.Rat.SetString.
func Parse(s string) (Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("rational: cannot parse %q", s)
	}
	return Rat{r}, nil
}

// MarshalText implements encoding.TextMarshaler using String.
func (x Rat) MarshalText() ([]byte, error) { return []byte(x.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler; it accepts the forms
// accepted by Parse.
func (x *Rat) UnmarshalText(b []byte) error {
	v, err := Parse(string(b))
	if err != nil {
		return err
	}
	*x = v
	return nil
}
