package lane

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// TestGobRoundTrip: a lane inside a struct survives a gob round trip
// exactly, at every varint width, and an empty lane decodes empty.
func TestGobRoundTrip(t *testing.T) {
	type rec struct {
		Before int
		Tags   Uint64s
		After  string
	}
	for _, tags := range []Uint64s{
		nil,
		{0},
		{0, 1, 127, 128, 1 << 14, 1<<35 + 7, math.MaxUint64, 0, 42},
		make(Uint64s, 262144),
	} {
		in := rec{Before: -3, Tags: tags, After: "x"}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(in); err != nil {
			t.Fatal(err)
		}
		var out rec
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(in.Tags) == 0 && len(out.Tags) == 0 {
			out.Tags = in.Tags
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v, want %+v", out, in)
		}
	}
}

// TestGobDecodeRejects: truncated, oversized and padded payloads fail
// instead of decoding garbage or allocating by a corrupt count.
func TestGobDecodeRejects(t *testing.T) {
	good, err := Uint64s{300, 5, 1 << 40}.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"empty":          nil,
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"huge count":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1},
		"bad varint":     {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"count past end": {3, 0, 5},
		"short of count": {3, 0x80, 0x80, 0x01},
	} {
		var l Uint64s
		if err := l.GobDecode(b); err == nil {
			t.Errorf("%s: decoded %v", name, l)
		}
	}
	var l Uint64s
	if err := l.GobDecode(good); err != nil || !reflect.DeepEqual(l, Uint64s{300, 5, 1 << 40}) {
		t.Errorf("good payload: %v, %v", l, err)
	}
}
