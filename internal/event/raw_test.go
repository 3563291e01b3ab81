package event

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
)

func sampleEvent() *Event {
	return NewBuilder("Stock").
		Str("symbol", "ACME").
		Float("price", 9.75).
		Int("volume", -12).
		Bool("hot", true).
		Payload([]byte{1, 2, 3, 0xff}).
		ID(42).
		Build()
}

func TestEncodeRawAccessors(t *testing.T) {
	e := sampleEvent()
	r := EncodeRaw(e)
	if r.Class() != "Stock" || r.EventID() != 42 || r.NumAttrs() != 4 {
		t.Fatalf("header = %q/%d/%d", r.Class(), r.EventID(), r.NumAttrs())
	}
	if !bytes.Equal(r.Payload(), e.Payload) {
		t.Fatalf("payload = %v", r.Payload())
	}
	for _, a := range e.Attrs {
		v, ok := r.Lookup(a.Name)
		if !ok || !v.Equal(a.Value) || v.Kind() != a.Value.Kind() {
			t.Fatalf("Lookup(%s) = %v/%v, want %v", a.Name, v, ok, a.Value)
		}
	}
	if v, ok := r.Lookup(TypeAttr); !ok || v.Str() != "Stock" {
		t.Fatalf("Lookup(class) = %v/%v", v, ok)
	}
	if _, ok := r.Lookup("absent"); ok {
		t.Fatal("Lookup(absent) found something")
	}
}

func TestParseRawRoundTrip(t *testing.T) {
	e := sampleEvent()
	b := AppendEncoded(nil, e)
	r, err := ParseRaw(b, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), b) {
		t.Fatal("Bytes() differs from input")
	}
	got := r.Event()
	if !got.Equal(e) || got.ID != e.ID || !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("materialized %v, want %v", got, e)
	}
	if r.Event() != got {
		t.Fatal("Event() materialized twice")
	}
}

func TestEncodeRawSharesDecodedEvent(t *testing.T) {
	e := sampleEvent()
	r := EncodeRaw(e)
	if r.Event() != e {
		t.Fatal("EncodeRaw should seed the decoded cache with the source event")
	}
	before := DecodeCount()
	_ = r.Event()
	if DecodeCount() != before {
		t.Fatal("local round trip decoded")
	}
}

func TestEventRawMemoized(t *testing.T) {
	e := sampleEvent()
	r1, r2 := e.Raw(), e.Raw()
	if r1 != r2 {
		t.Fatal("Event.Raw() encoded twice")
	}
	e.Set("price", Float(1))
	if e.Raw() == r1 {
		t.Fatal("Set did not invalidate the cached encoding")
	}
}

func TestRawRange(t *testing.T) {
	e := sampleEvent()
	r, err := ParseRaw(AppendEncoded(nil, e), nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	r.Range(func(name string, v Value) bool {
		names = append(names, name)
		return true
	})
	if strings.Join(names, ",") != "symbol,price,volume,hot" {
		t.Fatalf("range order = %v", names)
	}
	count := 0
	r.Range(func(string, Value) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-stop range visited %d", count)
	}
}

// TestWideEventLookupIndex exercises the lazy attribute index on both
// representations (satellite: O(attrs) Lookup fixed by a once-per-event
// index reused across evaluations).
func TestWideEventLookupIndex(t *testing.T) {
	b := NewBuilder("Wide")
	for i := 0; i < 32; i++ {
		b.Int("attr"+string(rune('a'+i)), int64(i))
	}
	e := b.Build()
	r, err := ParseRaw(AppendEncoded(nil, e), NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		name := "attr" + string(rune('a'+i))
		ev, ok1 := e.Lookup(name)
		rv, ok2 := r.Lookup(name)
		if !ok1 || !ok2 || ev.IntVal() != int64(i) || rv.IntVal() != int64(i) {
			t.Fatalf("%s: event %v/%v raw %v/%v", name, ev, ok1, rv, ok2)
		}
	}
	if _, ok := e.Lookup("nope"); ok {
		t.Fatal("indexed Lookup found a missing attribute")
	}
	// Set must invalidate the index.
	e.Set("attrz", Int(99))
	if v, ok := e.Lookup("attrz"); !ok || v.IntVal() != 99 {
		t.Fatal("Lookup after Set missed the new attribute")
	}
}

func TestParseRawMalformed(t *testing.T) {
	valid := AppendEncoded(nil, sampleEvent())
	for cut := 0; cut < len(valid); cut++ {
		if _, err := ParseRaw(valid[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ParseRaw(append(append([]byte(nil), valid...), 0xAA), nil); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestRawAllocations pins the frame path's allocation budget: encoding
// costs the bytes (sized once) plus one object holding the view and its
// attribute table, parsing costs that one object — for every table size
// newRaw shares, and one more beyond them.
func TestRawAllocations(t *testing.T) {
	for _, tc := range []struct{ attrs, encode, parse int }{
		{0, 2, 1}, {2, 2, 1}, {3, 2, 1}, {8, 2, 1}, {9, 3, 2},
	} {
		b := NewBuilder("Stock").ID(7).Payload([]byte("payload"))
		for i := 0; i < tc.attrs; i++ {
			if name := "attr" + string(rune('a'+i)); i%2 == 0 {
				b.Str(name, "value")
			} else {
				b.Int(name, int64(i))
			}
		}
		e := b.Build()
		r := EncodeRaw(e)
		if r.NumAttrs() != tc.attrs || cap(r.Bytes()) != len(r.Bytes()) {
			t.Fatalf("%d attrs: view has %d, bytes len %d cap %d", tc.attrs, r.NumAttrs(), len(r.Bytes()), cap(r.Bytes()))
		}
		if got := testing.AllocsPerRun(100, func() { EncodeRaw(e) }); int(got) != tc.encode {
			t.Errorf("%d attrs: EncodeRaw allocates %v objects, want %d", tc.attrs, got, tc.encode)
		}
		in := NewInterner()
		if got := testing.AllocsPerRun(100, func() {
			if _, err := ParseRaw(r.Bytes(), in); err != nil {
				t.Fatal(err)
			}
		}); int(got) != tc.parse {
			t.Errorf("%d attrs: ParseRaw allocates %v objects, want %d", tc.attrs, got, tc.parse)
		}
	}
}

// FuzzRawEvent is the satellite fuzz target: malformed or truncated
// bytes must return errors — never panic — and whatever parses must
// round-trip canonically (materialize → re-encode → parse → equal), with
// the lazy accessors agreeing with the decoded form attribute by
// attribute.
func FuzzRawEvent(f *testing.F) {
	f.Add(AppendEncoded(nil, sampleEvent()))
	f.Add(AppendEncoded(nil, New("X")))
	f.Add(AppendEncoded(nil, NewBuilder("").Str("", "").Build()))
	wide := NewBuilder("W")
	for i := 0; i < 12; i++ {
		wide.Float("f"+string(rune('0'+i)), float64(i)/3)
	}
	f.Add(AppendEncoded(nil, wide.Build()))
	f.Add([]byte{0})
	f.Add([]byte{1, 'T', 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseRaw(data, NewInterner())
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		// Everything the view promises must now be safe to read.
		dec := r.Event()
		for _, a := range dec.Attrs {
			if a.Value.Num() != a.Value.Num() {
				return // NaN is a legal wire value but equals nothing, itself included
			}
		}
		if dec.Type != r.Class() || dec.ID != r.EventID() || len(dec.Attrs) != r.NumAttrs() {
			t.Fatalf("view disagrees with decode: %q/%d/%d vs %q/%d/%d",
				r.Class(), r.EventID(), r.NumAttrs(), dec.Type, dec.ID, len(dec.Attrs))
		}
		if !bytes.Equal(r.Payload(), dec.Payload) {
			t.Fatal("payload view disagrees with decode")
		}
		i := 0
		r.Range(func(name string, v Value) bool {
			a := dec.Attrs[i]
			if a.Name != name || !eqValue(a.Value, v) {
				t.Fatalf("attr %d: view (%s,%v) vs decoded (%s,%v)", i, name, v, a.Name, a.Value)
			}
			i++
			return true
		})
		// Canonical round trip: a re-encode of the decoded form must parse
		// and materialize back to a structurally identical event. (The raw
		// input may use non-minimal varints, so byte equality is only
		// guaranteed from the second encode onward.)
		enc := AppendEncoded(nil, dec)
		if encodedLen(dec) != len(enc) {
			t.Fatalf("encodedLen = %d, encoding is %d bytes", encodedLen(dec), len(enc))
		}
		r2, err := ParseRaw(enc, nil)
		if err != nil {
			t.Fatalf("re-encode failed to parse: %v", err)
		}
		dec2 := r2.Event()
		if !dec2.Equal(dec) || dec2.ID != dec.ID || !bytes.Equal(dec2.Payload, dec.Payload) {
			t.Fatalf("round trip diverged: %v vs %v", dec2, dec)
		}
		if enc2 := AppendEncoded(nil, dec2); !bytes.Equal(enc, enc2) {
			t.Fatalf("second encode not canonical:\n%x\n%x", enc, enc2)
		}
	})
}

// eqValue compares values including kind (Equal alone admits int/float
// cross-kind equality, which would hide a kind corruption).
func eqValue(a, b Value) bool { return a.Kind() == b.Kind() && a.Equal(b) }

// TestRawConcurrentLookup hammers the lazy index and decode caches from
// many goroutines; run under -race this pins the atomic publication.
func TestRawConcurrentLookup(t *testing.T) {
	b := NewBuilder("Wide")
	for i := 0; i < 20; i++ {
		b.Int("a"+string(rune('a'+i)), int64(i))
	}
	e := b.Build()
	r, err := ParseRaw(AppendEncoded(nil, e), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewPCG(uint64(seed), 1))
			for i := 0; i < 2000; i++ {
				name := "a" + string(rune('a'+rng.IntN(20)))
				if v, ok := r.Lookup(name); !ok || v.Kind() != KindInt {
					t.Errorf("raw Lookup(%s) = %v/%v", name, v, ok)
					return
				}
				if v, ok := e.Lookup(name); !ok || v.Kind() != KindInt {
					t.Errorf("event Lookup(%s) = %v/%v", name, v, ok)
					return
				}
				_ = r.Event()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
