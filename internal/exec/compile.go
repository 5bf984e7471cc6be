// Package exec implements the physical execution engine of the SUDAF
// reproduction: columnar scans with predicate selection, left-deep hash
// joins, and hash group-by aggregation with three aggregate execution
// paths — built-in fast loops (sum/count/avg/min/max/stddev/variance/
// covariance), compiled SUDAF aggregation-state loops, and deliberately
// interpreted "hardcoded UDAF" accumulators that model the per-tuple
// boxing overhead of PL/pgSQL and Spark's UserDefinedAggregateFunction.
//
// The engine runs serial ("PostgreSQL mode") or with partitioned parallel
// partial aggregation and merge ("Spark mode"), exercising exactly the
// IUME update/merge contract the paper's canonical forms guarantee.
package exec

import (
	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// Accessor reads a float64 value for output row i of a row set. It is an
// alias so that accessors and binders pass to expr.Compile unconverted.
type Accessor = func(i int32) float64

// colAccessor builds an accessor for a physical column through a row
// indirection vector; nil rows read the column directly (identity).
func colAccessor(col *storage.Column, rows []int32) Accessor {
	if rows == nil {
		switch col.Kind {
		case storage.KindFloat:
			f := col.F
			return func(i int32) float64 { return f[i] }
		case storage.KindInt:
			v := col.I
			return func(i int32) float64 { return float64(v[i]) }
		default:
			c := col.Codes
			return func(i int32) float64 { return float64(c[i]) }
		}
	}
	switch col.Kind {
	case storage.KindFloat:
		f := col.F
		return func(i int32) float64 { return f[rows[i]] }
	case storage.KindInt:
		v := col.I
		return func(i int32) float64 { return float64(v[rows[i]]) }
	default:
		c := col.Codes
		return func(i int32) float64 { return float64(c[rows[i]]) }
	}
}

// intAccessor reads key values as int64, through rows or — nil —
// directly.
func intAccessor(col *storage.Column, rows []int32) func(i int32) int64 {
	if rows == nil {
		switch col.Kind {
		case storage.KindInt:
			v := col.I
			return func(i int32) int64 { return v[i] }
		case storage.KindString:
			c := col.Codes
			return func(i int32) int64 { return int64(c[i]) }
		default:
			f := col.F
			return func(i int32) int64 { return int64(f[i]) }
		}
	}
	switch col.Kind {
	case storage.KindInt:
		v := col.I
		return func(i int32) int64 { return v[rows[i]] }
	case storage.KindString:
		c := col.Codes
		return func(i int32) int64 { return int64(c[rows[i]]) }
	default:
		f := col.F
		return func(i int32) int64 { return int64(f[rows[i]]) }
	}
}

// CompileExpr compiles a scalar expression over columns into an accessor:
// the row instantiation (E = int32) of expr.Compile. bind resolves a
// column name to its accessor.
func CompileExpr(n expr.Node, bind func(name string) (Accessor, error)) (Accessor, error) {
	return expr.Compile(n, bind)
}
