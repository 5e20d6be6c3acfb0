package catalog_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
)

var schema = data.Schema{
	{Name: "Id", Kind: data.KindInt},
	{Name: "Name", Kind: data.KindString},
}

func table(ids ...int64) *data.Table {
	t := data.NewTable(schema)
	for _, id := range ids {
		t.Append(data.Row{data.Int(id), data.String_("n")})
	}
	return t
}

var t0 = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

func TestDefineIdempotentAndConflicts(t *testing.T) {
	c := catalog.New()
	if _, err := c.Define("X", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Define("X", schema); err != nil {
		t.Errorf("re-define with same schema must be a no-op: %v", err)
	}
	other := data.Schema{{Name: "Z", Kind: data.KindFloat}}
	if _, err := c.Define("X", other); err == nil {
		t.Error("conflicting schema must fail")
	}
	names := c.Names()
	if len(names) != 1 || names[0] != "X" {
		t.Errorf("names = %v", names)
	}
}

func TestBulkUpdateVersioning(t *testing.T) {
	c := catalog.New()
	_, _ = c.Define("X", schema)
	g1, err := c.BulkUpdate("X", t0, table(1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.BulkUpdate("X", t0.AddDate(0, 0, 1), table(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 {
		t.Error("versions must get distinct GUIDs")
	}
	latest, err := c.Latest("X")
	if err != nil {
		t.Fatal(err)
	}
	if latest.GUID != g2 || latest.Table.NumRows() != 2 {
		t.Errorf("latest = %+v", latest)
	}
	v1, err := c.VersionByGUID(g1)
	if err != nil || v1.Table.NumRows() != 1 {
		t.Errorf("old version must stay readable: %v", err)
	}
	if c.VersionCount("X") != 2 {
		t.Errorf("version count = %d", c.VersionCount("X"))
	}
}

func TestBulkUpdateSchemaMismatch(t *testing.T) {
	c := catalog.New()
	_, _ = c.Define("X", schema)
	bad := data.NewTable(data.Schema{{Name: "Other", Kind: data.KindInt}})
	if _, err := c.BulkUpdate("X", t0, bad); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("err = %v", err)
	}
	if _, err := c.BulkUpdate("Unknown", t0, table(1)); err == nil {
		t.Error("unknown dataset must fail")
	}
}

func TestWindow(t *testing.T) {
	c := catalog.New()
	_, _ = c.Define("X", schema)
	var guids []catalog.GUID
	for i := 0; i < 5; i++ {
		g, _ := c.BulkUpdate("X", t0.AddDate(0, 0, i), table(int64(i)))
		guids = append(guids, g)
	}
	win, err := c.Window("X", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 3 {
		t.Fatalf("window = %d", len(win))
	}
	if win[0].GUID != guids[4] || win[2].GUID != guids[2] {
		t.Error("window must be newest-first")
	}
}

func TestGDPRForget(t *testing.T) {
	c := catalog.New()
	_, _ = c.Define("X", schema)
	g1, _ := c.BulkUpdate("X", t0, table(1, 2, 3))
	ng, err := c.Forget(g1, t0.Add(time.Hour), func(r data.Row) bool { return r[0].I != 2 })
	if err != nil {
		t.Fatal(err)
	}
	if ng == g1 {
		t.Error("forget must rotate the GUID")
	}
	latest, _ := c.Latest("X")
	if latest.GUID != ng || latest.Table.NumRows() != 2 {
		t.Errorf("latest after forget: %+v", latest)
	}
	if latest.Bytes != latest.Table.ByteSize() {
		t.Errorf("the rotated version reports %d bytes, its table measures %d", latest.Bytes, latest.Table.ByteSize())
	}
	// The old version still resolves (for auditing) but is marked forgotten.
	old, err := c.VersionByGUID(g1)
	if err != nil || !old.Forgotten {
		t.Errorf("old version: %+v err=%v", old, err)
	}
	// Double-forget fails.
	if _, err := c.Forget(g1, t0, func(data.Row) bool { return true }); err == nil {
		t.Error("double forget must fail")
	}
	if _, err := c.Forget("nope", t0, func(data.Row) bool { return true }); err == nil {
		t.Error("unknown GUID must fail")
	}
}

func TestLatestSkipsForgotten(t *testing.T) {
	c := catalog.New()
	_, _ = c.Define("X", schema)
	g1, _ := c.BulkUpdate("X", t0, table(1))
	// Forget rotates to a fresh replacement; Latest must be the replacement.
	ng, _ := c.Forget(g1, t0, func(data.Row) bool { return false })
	latest, err := c.Latest("X")
	if err != nil {
		t.Fatal(err)
	}
	if latest.GUID != ng || latest.Table.NumRows() != 0 {
		t.Errorf("latest = %+v", latest)
	}
}

func TestScaleFactor(t *testing.T) {
	c := catalog.New()
	ds, _ := c.Define("X", schema)
	if ds.EffectiveScale() != 1 {
		t.Errorf("default scale = %g", ds.EffectiveScale())
	}
	c.SetScaleFactor("X", 1000)
	ds2, _ := c.Dataset("X")
	if ds2.EffectiveScale() != 1000 {
		t.Errorf("scale = %g", ds2.EffectiveScale())
	}
}

func TestProducerLineage(t *testing.T) {
	c := catalog.New()
	_, _ = c.Define("X", schema)
	c.SetProducer("X", "cook-7")
	ds, _ := c.Dataset("X")
	if ds.Producer() != "cook-7" {
		t.Errorf("producer = %q", ds.Producer())
	}
}

// TestVersionByGUIDAtScale: resolving a GUID is an index lookup, not a walk of
// every version, and the index tracks what the walk found — every published
// version of every dataset, the forgotten ones (still resolvable, marked) and
// their replacements — with the errors the walk returned for a GUID that was
// never issued or is forgotten twice.
func TestVersionByGUIDAtScale(t *testing.T) {
	c := catalog.New()
	const datasets, perDataset = 8, 500
	type published struct {
		guid catalog.GUID
		name string
		id   int64
	}
	var all []published
	for v := 0; v < perDataset; v++ {
		for d := 0; d < datasets; d++ {
			name := fmt.Sprintf("D%d", d)
			if v == 0 {
				if _, err := c.Define(name, schema); err != nil {
					t.Fatal(err)
				}
			}
			id := int64(d*perDataset + v)
			g, err := c.BulkUpdate(name, t0.Add(time.Duration(v)*time.Hour), table(id, id+1))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, published{g, name, id})
		}
	}
	forgotten := map[catalog.GUID]catalog.GUID{}
	for i := 0; i < len(all); i += 7 {
		ng, err := c.Forget(all[i].guid, t0, func(r data.Row) bool { return r[0].I != all[i].id })
		if err != nil {
			t.Fatal(err)
		}
		forgotten[all[i].guid] = ng
	}
	for _, p := range all {
		v, err := c.VersionByGUID(p.guid)
		if err != nil {
			t.Fatalf("%s: %v", p.guid, err)
		}
		ng, wasForgotten := forgotten[p.guid]
		if v.GUID != p.guid || v.Dataset != p.name || v.Forgotten != wasForgotten || v.Table.Rows[0][0].I != p.id {
			t.Fatalf("%s resolved to %+v", p.guid, v)
		}
		if !wasForgotten {
			continue
		}
		r, err := c.VersionByGUID(ng)
		if err != nil || r.Dataset != p.name || r.Forgotten || r.Table.NumRows() != 1 || r.Table.Rows[0][0].I != p.id+1 {
			t.Fatalf("replacement %s of %s resolved to %+v (err %v)", ng, p.guid, r, err)
		}
		if _, err := c.Forget(p.guid, t0, func(data.Row) bool { return true }); err == nil ||
			err.Error() != fmt.Sprintf("catalog: version %q already forgotten", p.guid) {
			t.Fatalf("second forget of %s: %v", p.guid, err)
		}
	}
	want := perDataset
	for _, p := range all {
		if _, ok := forgotten[p.guid]; ok && p.name == "D0" {
			want++ // a forget appends the replacement to the same dataset
		}
	}
	if got := c.VersionCount("D0"); got != want {
		t.Errorf("D0 has %d versions, want %d", got, want)
	}
	for _, g := range []catalog.GUID{"", "nope", "guid-D0-ffffffff", all[0].guid + "x"} {
		want := fmt.Sprintf("catalog: unknown version %q", g)
		if _, err := c.VersionByGUID(g); err == nil || err.Error() != want {
			t.Errorf("VersionByGUID(%q): %v, want %s", g, err, want)
		}
		if _, err := c.Forget(g, t0, func(data.Row) bool { return true }); err == nil || err.Error() != want {
			t.Errorf("Forget(%q): %v, want %s", g, err, want)
		}
	}
}
