package exec

import (
	"fmt"
	"testing"

	"sudaf/internal/catalog"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// keyCatalog registers tables at fixed epochs so key texts are literal:
// sales@3, stores@4, and t@5 / t2@6, where one name prefixes the other.
func keyCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, epoch int64, cols ...*storage.Column) {
		tb := storage.NewTable(name, cols...)
		tb.Epoch = epoch
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	mk("sales", 3, storage.NewColumn("s_store", storage.KindInt), storage.NewColumn("s_item", storage.KindInt),
		storage.NewColumn("price", storage.KindFloat), storage.NewColumn("qty", storage.KindFloat))
	mk("stores", 4, storage.NewColumn("st_id", storage.KindInt), storage.NewColumn("st_state", storage.KindString))
	mk("t", 5, storage.NewColumn("a", storage.KindInt), storage.NewColumn("x", storage.KindFloat), storage.NewColumn("k", storage.KindInt))
	mk("t2", 6, storage.NewColumn("b", storage.KindInt), storage.NewColumn("y", storage.KindFloat), storage.NewColumn("k2", storage.KindInt))
	return cat
}

// TestDataKeyBytes pins DataKey.String to the fingerprint bytes the cache,
// EXPLAIN and persisted snapshots have always used: a changed rendering
// would turn every restored snapshot cold.
func TestDataKeyBytes(t *testing.T) {
	e := NewEngine(keyCatalog(t), 1)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT sum(price) FROM sales", "T[sales@3]J[]F[]G[]"},
		{"SELECT s_item, sum(price) FROM sales GROUP BY s_item", "T[sales@3]J[]F[]G[s_item]"},
		{"SELECT s_item, s_store, count(*) FROM sales GROUP BY s_item, s_store", "T[sales@3]J[]F[]G[s_item,s_store]"},
		{"SELECT sum(price) FROM sales WHERE qty < 3 AND price > 5", "T[sales@3]J[]F[sales:price>5;sales:qty<3]G[]"},
		{"SELECT sum(price) FROM sales WHERE price > 5 AND qty < 3", "T[sales@3]J[]F[sales:price>5;sales:qty<3]G[]"},
		{"SELECT sum(price) FROM sales WHERE price > 5 AND (qty < 3 OR qty > 7) AND price <= qty",
			"T[sales@3]J[]F[sales:(qty<3 OR qty>7);sales:price<=qty;sales:price>5]G[]"},
		{"SELECT sum(price) FROM sales, stores WHERE s_store = st_id AND st_state = 'TN' GROUP BY s_item",
			"T[sales@3,stores@4]J[sales.s_store=stores.st_id]F[stores:st_state='TN']G[s_item]"},
		{"SELECT count(*) FROM stores, sales WHERE st_state = 'TN' AND st_id = s_store GROUP BY s_item",
			"T[sales@3,stores@4]J[sales.s_store=stores.st_id]F[stores:st_state='TN']G[s_item]"},
		{"SELECT k, sum(x) FROM t, t2 WHERE a = b AND x > 1 AND y < 2 AND k2 != 4 GROUP BY k",
			"T[t2@6,t@5]J[t.a=t2.b]F[t2:k2!=4;t2:y<2;t:x>1]G[k]"},
		{"SELECT k, sum(x) FROM t2, t WHERE k2 != 4 AND y < 2 AND b = a AND x > 1 GROUP BY k",
			"T[t2@6,t@5]J[t.a=t2.b]F[t2:k2!=4;t2:y<2;t:x>1]G[k]"},
		{"SELECT sum(x) FROM t, t2 WHERE k2 = k AND a = b", "T[t2@6,t@5]J[t.a=t2.b,t.k=t2.k2]F[]G[]"},
		{"SELECT sum(x) FROM t2, t WHERE b = a AND k = k2", "T[t2@6,t@5]J[t.a=t2.b,t.k=t2.k2]F[]G[]"},
		{"SELECT sum(price) OVER (ROWS 3 PRECEDING) FROM sales", "T[sales@3]J[]F[]G[]|W[ROWS 3 PRECEDING]"},
		{"SELECT sum(x) OVER (ROWS 10 TUMBLING) FROM t", "T[t@5]J[]F[]G[]|W[ROWS 10 TUMBLING]"},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := e.PrepareData(stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		key := &dp.Key
		if stmt.Window != nil {
			key = key.Framed(stmt.Window.String())
		}
		if got := key.String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.sql, got, tc.want)
		}
	}
}

// TestDataKeyFieldsKeepNameOrder: the text sorts rendered strings, where
// "t2@6" precedes "t@5"; the fields EXPLAIN reads stay in name order.
func TestDataKeyFieldsKeepNameOrder(t *testing.T) {
	e := NewEngine(keyCatalog(t), 1)
	stmt, err := sqlparse.Parse("SELECT k, sum(x) FROM t2, t WHERE k2 != 4 AND y < 2 AND b = a AND x > 1 GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	k := &dp.Key
	if got := fmt.Sprint(k.Tables); got != "[t@5 t2@6]" {
		t.Errorf("tables %s, want name order", got)
	}
	var filters []string
	for _, f := range k.Filters {
		filters = append(filters, f.Table+": "+f.Text)
	}
	if got := fmt.Sprint(filters); got != "[t: x>1 t2: k2!=4 t2: y<2]" {
		t.Errorf("filters %s, want table name order, then text", got)
	}
	if len(k.Joins) != 1 || k.Joins[0] != (JoinPair{L: ColumnRef{"t", "a"}, R: ColumnRef{"t2", "b"}}) {
		t.Errorf("joins %v, want the normalized pair t.a=t2.b", k.Joins)
	}
	if !k.Reads("t", 5) || k.Reads("t", 6) || k.Reads("sales", 3) {
		t.Error("Reads must match name and epoch")
	}
}
