package exec

import (
	"math"
	"testing"

	"sudaf/internal/storage"
)

// Regression tests for keyDomainOf against the Stats() (+Inf, -Inf)
// sentinels: an empty or all-NaN key column must yield the zero
// keyDomain (hash grouping), never a dense domain derived from
// non-finite bounds (int64-of-Inf is undefined behavior).

func TestKeyDomainEmptyIntColumn(t *testing.T) {
	c := storage.NewColumn("k", storage.KindInt)
	if d := keyDomainOf(c, maxDenseKeyWidth); d.dense {
		t.Fatalf("empty int column produced dense domain %+v", d)
	}
}

func TestKeyDomainSingleRow(t *testing.T) {
	c := storage.NewColumn("k", storage.KindInt)
	c.AppendInt(41)
	d := keyDomainOf(c, maxDenseKeyWidth)
	if !d.dense || d.base != 41 || d.width != 1 {
		t.Fatalf("single-row domain = %+v, want dense base=41 width=1", d)
	}
}

func TestKeyDomainEmptyStringColumn(t *testing.T) {
	c := storage.NewColumn("s", storage.KindString)
	if d := keyDomainOf(c, maxDenseKeyWidth); d.dense {
		t.Fatalf("empty string column produced dense domain %+v", d)
	}
}

func TestKeyDomainFloatColumnNeverDense(t *testing.T) {
	c := storage.NewColumn("f", storage.KindFloat)
	c.AppendFloat(math.NaN())
	c.AppendFloat(math.NaN())
	if d := keyDomainOf(c, maxDenseKeyWidth); d.dense {
		t.Fatalf("all-NaN float column produced dense domain %+v", d)
	}
}

func TestKeyDomainInexactStatsFallsBackToHash(t *testing.T) {
	// Values beyond 2^53 round in float64, so the float-derived base may
	// disagree with the true minimum even when the span is tiny; dense
	// assignment would then index out of the lookup table.
	c := storage.NewColumn("k", storage.KindInt)
	base := int64(1) << 60
	for i := int64(0); i < 10; i++ {
		c.AppendInt(base + i)
	}
	if d := keyDomainOf(c, maxDenseKeyWidth); d.dense {
		t.Fatalf("beyond-2^53 column produced dense domain %+v", d)
	}
}

func TestKeyDomainHugeSpanFallsBackToHash(t *testing.T) {
	c := storage.NewColumn("k", storage.KindInt)
	c.AppendInt(math.MinInt64 + 1)
	c.AppendInt(math.MaxInt64 - 1)
	if d := keyDomainOf(c, maxDenseKeyWidth); d.dense {
		t.Fatalf("overflowing span produced dense domain %+v", d)
	}
}

func TestKeyDomainAt2p53FallsBackToHash(t *testing.T) {
	// 2^53+1 rounds to 2^53 in the float stats, so this column reports
	// min == max and would pass for a one-key domain.
	c := storage.NewColumn("k", storage.KindInt)
	c.AppendInt(1 << 53)
	c.AppendInt(1<<53 + 1)
	if d := keyDomainOf(c, maxDenseKeyWidth); d.dense {
		t.Fatalf("column reaching 2^53 produced dense domain %+v", d)
	}
}
