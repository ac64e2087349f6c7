package serve

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hypertree"
	"hypertree/internal/gen"
)

// The serving pool at the benchmark's scale (ServingDatabase seed 1, 2000
// rows per relation, domain 500) under hdserve's compile options must plan
// no bag whose λ edges fail to join: the AGM bound alone priced the 4-cycle
// bag χ{X1,X2,X3} at λ{r2,r4} — a cross product of two unrelated
// relations — as cheaply as the joined λ{r1,r2}. Every template's answer
// must also equal the naive join's.
func TestServedPlansHaveNoCrossProduct(t *testing.T) {
	db := gen.ServingDatabase(rand.New(rand.NewSource(1)), 2000, 500)
	s := newTestServer(t, Config{DB: db, JoinKernel: "auto"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tpl := range gen.ServingPool() {
		resp, err := http.Get(ts.URL + "/admin/explain?query=" + url.QueryEscape(tpl.Src))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: explain status %d: %s", tpl.Name, resp.StatusCode, body)
		}
		if strings.Contains(string(body), "cross-product") {
			t.Errorf("%s: served plan has a cross-product bag:\n%s", tpl.Name, body)
		}

		q := hypertree.MustParseQuery(tpl.Src)
		naive, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyNaive))
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.Execute(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		code, got, _ := post(t, ts.URL, QueryRequest{Query: tpl.Src})
		if code != http.StatusOK {
			t.Fatalf("%s: query status %d", tpl.Name, code)
		}
		switch {
		case q.IsBoolean():
			if got.Boolean == nil || *got.Boolean != !want.Empty() {
				t.Errorf("%s: served verdict %v, naive %v", tpl.Name, got.Boolean, !want.Empty())
			}
		case got.RowCount != want.Rows():
			t.Errorf("%s: served %d answer rows, naive %d", tpl.Name, got.RowCount, want.Rows())
		}
	}
}
