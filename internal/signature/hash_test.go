package signature

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"cloudviews/internal/plan"
)

// referenceHash is hash as it was when it streamed the parts through a
// sha256.New digest: the bytes every stored view path, golden and explain
// export was derived from.
func referenceHash(version string, parts ...string) Sig {
	h := sha256.New()
	h.Write([]byte("v=" + version))
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return Sig(hex.EncodeToString(h.Sum(nil)[:16]))
}

// referencePhysical is Physical as it was when the result cache keyed on a
// signature family of its own, hashed with referenceHash: every node in the
// "phys-op=" domain over its inputs' physical signatures, a ViewScan as
// itself and a Spool as a real operator. Two nodes share one exactly when
// their subtrees execute the same operators, which is what the result-cache
// keys must still tell apart.
func referencePhysical(s *Signer, root plan.Node) map[plan.Node]Sig {
	out := map[plan.Node]Sig{}
	var rec func(n plan.Node) Sig
	rec = func(n plan.Node) Sig {
		parts := []string{"phys-op=" + n.OpName(), "attrs=" + string(plan.AppendAttrs(nil, n, false))}
		if vs, ok := n.(*plan.ViewScan); ok {
			parts = append(parts, "view="+vs.StrictSig)
		}
		for _, c := range n.Children() {
			parts = append(parts, string(rec(c)))
		}
		out[n] = referenceHash(s.EngineVersion, parts...)
		return out[n]
	}
	rec(root)
	return out
}

// ReferencePhysical lets the external tests compare keys with the oracle.
var ReferencePhysical = referencePhysical

// TestHashMatchesReference: assembling the bytes in a stack buffer hashes what
// the streaming digest hashed — for no parts, empty parts, parts holding the
// 0x00 separator, and totals on both sides of the buffer's size.
func TestHashMatchesReference(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"", ""},
		{"op=Filter", "", "attrs="},
		{"a\x00b", "\x00", "c\x00"},
		{strings.Repeat("x", 509)},
		{strings.Repeat("x", 510), "y"},
		{strings.Repeat("x", 4096), strings.Repeat("\x00", 600)},
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 500; i++ {
		parts := make([]string, rng.Intn(6))
		for j := range parts {
			var b []byte
			if rng.Intn(3) > 0 { // a third stay empty
				b = make([]byte, rng.Intn(400))
				rng.Read(b)
			}
			parts[j] = string(b)
		}
		cases = append(cases, parts)
	}
	long := 0
	for _, version := range []string{"", "scope-r1", strings.Repeat("v", 700)} {
		s := &Signer{EngineVersion: version}
		for _, parts := range cases {
			// Wherever the list is cut into a node's own parts and its
			// inputs' signatures, the bytes hashed are the same.
			want := referenceHash(version, parts...)
			for cut := 0; cut <= len(parts); cut++ {
				var inputs []Sig
				for _, p := range parts[cut:] {
					inputs = append(inputs, Sig(p))
				}
				if got := s.hash(inputs, parts[:cut]...); got != want {
					t.Errorf("version %q, parts %q cut at %d: %s, want %s", version, parts, cut, got, want)
				}
			}
			if len(version)+len(strings.Join(parts, "\x00")) > 512 {
				long++
			}
		}
	}
	if long < 20 {
		t.Fatalf("only %d cases outgrew the stack buffer", long)
	}
}

// TestHashAllocs: a signature costs the allocation of its string and nothing
// else.
func TestHashAllocs(t *testing.T) {
	s := &Signer{EngineVersion: "scope-r1"}
	op, attrs, child := "op=Filter", "attrs=pred=(col:value#2 > lit:float:40)", "0123456789abcdef0123456789abcdef"
	inputs := []Sig{Sig(child)}
	allocs := testing.AllocsPerRun(1000, func() { _ = s.hash(inputs, op, attrs) })
	t.Logf("%.0f allocs per three-part signature", allocs)
	if allocs > 1 {
		t.Errorf("%.0f allocs per three-part signature, want at most 1", allocs)
	}
}
