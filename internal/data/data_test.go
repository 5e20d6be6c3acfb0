package data

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestValueRoundTrip(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Float(3.5), "3.5"},
		{String_("hello"), "hello"},
		{Bool(true), "true"},
		{Null(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestAppendValueMatchesString holds the appended rendering to String() for
// every kind: signatures hash one and join keys encode the other.
func TestAppendValueMatchesString(t *testing.T) {
	vals := []Value{
		{}, Int(0), Int(-7), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0.1), Float(math.Copysign(0, -1)), Float(1e300), Float(5e-324),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(3),
		String_(""), String_("s\x00t"), String_("\xc9t\u00e9"), Bool(false), Bool(true),
		Time(time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)),
		Time(time.Date(2024, 3, 1, 12, 0, 0, 500, time.UTC)),
		Time(time.Date(2024, 3, 1, 12, 0, 0, 120_000_000, time.FixedZone("x", 3600))),
		Time(time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC)),
		{Kind: Kind(42), S: "ignored"},
	}
	for _, v := range vals {
		if got := string(AppendValue([]byte("pre"), v)); got != "pre"+v.String() {
			t.Errorf("kind %v: appended %q, String() %q", v.Kind, got, v.String())
		}
	}
}

func TestValueTime(t *testing.T) {
	ts := time.Date(2020, 2, 1, 12, 0, 0, 0, time.UTC)
	v := Time(ts)
	if !v.AsTime().Equal(ts) {
		t.Fatalf("AsTime() = %v, want %v", v.AsTime(), ts)
	}
	if v.Kind != KindTime {
		t.Fatalf("Kind = %v, want KindTime", v.Kind)
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(3).Equal(String_("3")) {
		t.Error("Int(3) should not equal String(3)")
	}
	if !Null().Equal(Null()) {
		t.Error("Null should equal Null (grouping semantics)")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{String_("a"), String_("b"), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Bool(false), Bool(true), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := Schema{{Name: "Id", Kind: KindInt}, {Name: "Name", Kind: KindString}}
	if got := s.ColumnIndex("id"); got != 0 {
		t.Errorf("ColumnIndex(id) = %d, want 0 (case-insensitive)", got)
	}
	if got := s.ColumnIndex("missing"); got != -1 {
		t.Errorf("ColumnIndex(missing) = %d, want -1", got)
	}
}

func TestTableAppendAndFingerprint(t *testing.T) {
	s := Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindString}}
	t1 := NewTable(s)
	t1.Append(Row{Int(1), String_("x")})
	t1.Append(Row{Int(2), String_("y")})
	t2 := NewTable(s)
	t2.Append(Row{Int(2), String_("y")})
	t2.Append(Row{Int(1), String_("x")})
	if t1.Fingerprint() != t2.Fingerprint() {
		t.Error("fingerprints should be order-independent")
	}
	t2.Append(Row{Int(3), String_("z")})
	if t1.Fingerprint() == t2.Fingerprint() {
		t.Error("different contents must have different fingerprints")
	}
}

func TestTableAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	tb := NewTable(Schema{{Name: "a", Kind: KindInt}})
	tb.Append(Row{Int(1), Int(2)})
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(3)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[r.Zipf(100, 1.2)]++
	}
	if counts[0] < counts[50] {
		t.Errorf("Zipf should be head-heavy: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Fatalf("all samples must be in range, got %d", total)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Error("forks with different ids should diverge")
	}
}

func TestShuffle(t *testing.T) {
	r := NewRand(9)
	items := []int{1, 2, 3, 4, 5}
	Shuffle(r, items)
	sum := 0
	for _, v := range items {
		sum += v
	}
	if sum != 15 {
		t.Error("shuffle must preserve elements")
	}
}

func TestValueByteSize(t *testing.T) {
	if Null().ByteSize() != 1 {
		t.Error("null size")
	}
	if Int(5).ByteSize() != 8 || Float(1.5).ByteSize() != 8 || Bool(true).ByteSize() != 8 {
		t.Error("scalar sizes")
	}
	if String_("abc").ByteSize() != 7 { // len + 4
		t.Errorf("string size = %d", String_("abc").ByteSize())
	}
}

// TestValueSize pins the cell layout: the string header, the two 8-byte
// scalars and the two one-byte fields packed into the last word. A field added
// or moved so that padding reappears costs every table a fifth of its bytes.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 40 {
		t.Fatalf("a Value is %d bytes, want 40", got)
	}
}

func TestValueAsConversions(t *testing.T) {
	if Int(7).AsFloat() != 7.0 || Float(7.9).AsInt() != 7 {
		t.Error("numeric conversions")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsFloat() != 0 {
		t.Error("bool conversions")
	}
	if Null().AsInt() != 0 || Null().AsFloat() != 0 {
		t.Error("null conversions")
	}
	if String_("x").AsInt() != 0 {
		t.Error("string AsInt defaults to 0")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "STRING", KindBool: "BOOL", KindTime: "TIME",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v = %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestSchemaCloneIndependence(t *testing.T) {
	s := Schema{{Name: "a", Kind: KindInt}}
	c := s.Clone()
	c[0].Name = "changed"
	if s[0].Name != "a" {
		t.Error("clone must not alias")
	}
}

func TestTableCloneAndByteSize(t *testing.T) {
	tb := NewTable(Schema{{Name: "a", Kind: KindInt}, {Name: "s", Kind: KindString}})
	tb.Append(Row{Int(1), String_("xyz")})
	c := tb.Clone()
	c.Rows[0][0] = Int(99)
	if tb.Rows[0][0].I != 1 {
		t.Error("clone must deep-copy rows")
	}
	if tb.ByteSize() != 8+3+4 {
		t.Errorf("table bytes = %d", tb.ByteSize())
	}
	if tb.Rows[0].ByteSize() != tb.ByteSize() {
		t.Error("single-row table sizes must agree")
	}
}

func TestInt63n(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 100; i++ {
		v := r.Int63n(1000)
		if v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}
