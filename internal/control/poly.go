// Package control provides the discrete-time control-theory toolkit behind
// the paper's §4 analysis: polynomials and rational transfer functions in z,
// root finding for pole analysis, closed-loop construction, step-response
// simulation, and the transient/steady-state metrics of Theorem 1 (BIBO
// stability, steady-state error, maximum overshoot, convergence rate).
package control

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Poly is a real polynomial in z with ascending coefficients:
// p[0] + p[1]·z + p[2]·z² + …
type Poly []float64

// NewPoly copies the coefficients and trims trailing (highest-degree) zeros,
// keeping at least the constant term.
func NewPoly(coeffs ...float64) Poly {
	p := append(Poly(nil), coeffs...)
	return p.trim()
}

func (p Poly) trim() Poly {
	n := len(p)
	for n > 1 && p[n-1] == 0 {
		n--
	}
	if n == 0 {
		return Poly{0}
	}
	return p[:n]
}

// Degree returns the degree of the polynomial (0 for constants, including
// the zero polynomial).
func (p Poly) Degree() int { return len(p.trim()) - 1 }

// IsZero reports whether the polynomial is identically zero.
func (p Poly) IsZero() bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}

// Eval evaluates p at the real point z by Horner's rule.
func (p Poly) Eval(z float64) float64 {
	v := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		v = v*z + p[i]
	}
	return v
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	for i := range out {
		if i < len(p) {
			out[i] += p[i]
		}
		if i < len(q) {
			out[i] += q[i]
		}
	}
	return out.trim()
}

// Mul returns p · q.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Poly{0}
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			out[i+j] += a * b
		}
	}
	return out.trim()
}

// Scale returns c·p.
func (p Poly) Scale(c float64) Poly {
	out := make(Poly, len(p))
	for i, a := range p {
		out[i] = c * a
	}
	return out.trim()
}

// String renders the polynomial with z as the indeterminate.
func (p Poly) String() string {
	p = p.trim()
	var parts []string
	for i := len(p) - 1; i >= 0; i-- {
		c := p[i]
		if c == 0 && len(p) > 1 {
			continue
		}
		switch i {
		case 0:
			parts = append(parts, fmt.Sprintf("%g", c))
		case 1:
			parts = append(parts, fmt.Sprintf("%g·z", c))
		default:
			parts = append(parts, fmt.Sprintf("%g·z^%d", c, i))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}

// Roots returns all complex roots of p (with multiplicity) using the
// Durand–Kerner iteration. It panics on the zero polynomial and returns nil
// for constants.
func (p Poly) Roots() []complex128 {
	p = p.trim()
	if p.IsZero() {
		panic("control: roots of the zero polynomial")
	}
	n := p.Degree()
	if n == 0 {
		return nil
	}
	// Normalize to monic.
	monic := make([]complex128, n+1)
	lead := p[n]
	for i := 0; i <= n; i++ {
		monic[i] = complex(p[i]/lead, 0)
	}
	evalMonic := func(z complex128) complex128 {
		v := complex(1, 0) // leading coefficient
		for i := n - 1; i >= 0; i-- {
			v = v*z + monic[i]
		}
		return v
	}
	// Initial guesses on a circle of radius related to coefficient size,
	// with an irrational angle offset to avoid symmetry traps.
	radius := 0.0
	for i := 0; i < n; i++ {
		if r := math.Abs(real(monic[i])); r > radius {
			radius = r
		}
	}
	radius = 1 + radius
	roots := make([]complex128, n)
	for i := range roots {
		angle := 2*math.Pi*float64(i)/float64(n) + 0.4
		roots[i] = cmplx.Rect(radius, angle)
	}
	for iter := 0; iter < 500; iter++ {
		maxDelta := 0.0
		for i := range roots {
			num := evalMonic(roots[i])
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				den = complex(1e-12, 0)
			}
			delta := num / den
			roots[i] -= delta
			if d := cmplx.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < 1e-13 {
			break
		}
	}
	return roots
}
