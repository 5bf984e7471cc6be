package canonical

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sudaf/internal/expr"
	"sudaf/internal/scalar"
)

// KernelClass names the specialized batch-kernel shapes of the vectorized
// executor. Kernel selection happens here, on the decomposed state — the
// canonical form is what makes the hot shapes recognizable (sum(x^k) is a
// Σ-state with a power chain, never an opaque expression).
type KernelClass int

const (
	// KernelGeneric uses the batch expression evaluator plus a generic
	// merge loop — correct for every state, fused for none.
	KernelGeneric KernelClass = iota
	// KernelCount is count(): no input column at all.
	KernelCount
	// KernelSumCol is sum(col).
	KernelSumCol
	// KernelSumPow is sum(col^k) for k ∈ {2, 3, 4}.
	KernelSumPow
	// KernelSumMul is sum(colX * colY).
	KernelSumMul
	// KernelProdCol is prod(col).
	KernelProdCol
	// KernelMinCol and KernelMaxCol are min(col) / max(col).
	KernelMinCol
	KernelMaxCol
)

func (k KernelClass) String() string {
	switch k {
	case KernelGeneric:
		return "generic"
	case KernelCount:
		return "count"
	case KernelSumCol:
		return "sum(col)"
	case KernelSumPow:
		return "sum(col^k)"
	case KernelSumMul:
		return "sum(col*col)"
	case KernelProdCol:
		return "prod(col)"
	case KernelMinCol:
		return "min(col)"
	case KernelMaxCol:
		return "max(col)"
	}
	return fmt.Sprintf("KernelClass(%d)", int(k))
}

// KernelPlan is the executor directive chosen for one state: which fused
// loop to run and over which base columns. Pow is the exponent for
// KernelSumPow.
type KernelPlan struct {
	Class     KernelClass
	Col, Col2 string
	Pow       int
}

// SelectKernel classifies the state into a batch-kernel shape. Bases that
// are not bare columns (or a product/power of bare columns with an
// identity chain) fall back to KernelGeneric, which batch-evaluates the
// base expression and applies the scalar chain element-wise.
func (s State) SelectKernel() KernelPlan {
	if s.Op == OpCount {
		return KernelPlan{Class: KernelCount}
	}
	ch := s.F.NormalizeReal()
	v, isVar := s.Base.(*expr.Var)
	ident := ch.IsIdentity()
	switch s.Op {
	case OpSum:
		if isVar {
			if ident {
				return KernelPlan{Class: KernelSumCol, Col: v.Name}
			}
			// A single power primitive with a small integer exponent:
			// sum(x^2) / sum(x^3) / sum(x^4) — the moment states.
			if len(ch.Prims) == 1 && ch.Prims[0].Kind == scalar.KPower {
				if a, err := scalar.CEval(ch.Prims[0].A, nil); err == nil {
					if k := int(a); float64(k) == a && k >= 2 && k <= 4 {
						return KernelPlan{Class: KernelSumPow, Col: v.Name, Pow: k}
					}
				}
			}
			return KernelPlan{Class: KernelGeneric}
		}
		if !ident {
			return KernelPlan{Class: KernelGeneric}
		}
		if b, ok := s.Base.(*expr.Bin); ok {
			if b.Op == '*' {
				if l, lok := b.L.(*expr.Var); lok {
					if r, rok := b.R.(*expr.Var); rok {
						return KernelPlan{Class: KernelSumMul, Col: l.Name, Col2: r.Name}
					}
				}
			}
			if b.Op == '^' {
				if l, lok := b.L.(*expr.Var); lok {
					if r, rok := b.R.(*expr.Num); rok {
						if k := int(r.Val); float64(k) == r.Val && k >= 2 && k <= 4 {
							return KernelPlan{Class: KernelSumPow, Col: l.Name, Pow: k}
						}
					}
				}
			}
		}
	case OpProd:
		if isVar && ident {
			return KernelPlan{Class: KernelProdCol, Col: v.Name}
		}
	case OpMin:
		if isVar && ident {
			return KernelPlan{Class: KernelMinCol, Col: v.Name}
		}
	case OpMax:
		if isVar && ident {
			return KernelPlan{Class: KernelMaxCol, Col: v.Name}
		}
	}
	return KernelPlan{Class: KernelGeneric}
}

// CompileT compiles the terminating function into a closure over the
// state vector: the E = []float64 instantiation of expr.Compile. The
// hardcoded HardT takes precedence when present.
func (f *Form) CompileT() (func(states []float64) float64, error) {
	if hard := f.HardT; hard != nil {
		return func(states []float64) float64 {
			v, err := hard(states)
			if err != nil {
				return math.NaN()
			}
			return v
		}, nil
	}
	return expr.Compile(f.T, f.bindStateVar)
}

// bindStateVar resolves a T-variable s1..sk to its state-vector reader.
func (f *Form) bindStateVar(name string) (func([]float64) float64, error) {
	idx, err := strconv.Atoi(strings.TrimPrefix(name, "s"))
	if !strings.HasPrefix(name, "s") || err != nil || idx < 1 || idx > len(f.States) {
		return nil, fmt.Errorf("terminating function references %q, not a state variable s1..s%d", name, len(f.States))
	}
	i := idx - 1
	return func(s []float64) float64 { return s[i] }, nil
}
