package api

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeJobSpec fuzzes the job-spec decoder, the daemon's untrusted
// boundary. Any input must either be rejected or decode to a spec that
// re-encodes and decodes to itself and whose instruction budget stays
// within the 2^53 bound. The seeds (the evaluate golden, one sweep spec,
// one experiment spec and an over-bound budget) also run under `go test`.
func FuzzDecodeJobSpec(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "jobspec.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(Encode(JobSpec{V: Version, Kind: KindSweep, Benchmark: "lbm", Accesses: 6000, Stride: 67, DRAMCache: true}))
	f.Add(Encode(JobSpec{V: Version, Kind: KindExperiment, Experiment: "fig7", Quick: true}))
	f.Add(bytes.Replace(golden, []byte(`"insts": 2000000`), []byte(`"insts": 18446744073709551615`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		if s.Insts > maxInsts {
			t.Fatalf("accepted insts %d above the 2^53 bound", s.Insts)
		}
		re, err := DecodeJobSpec(Encode(s))
		if err != nil {
			t.Fatalf("accepted spec does not re-decode: %v\n%s", err, Encode(s))
		}
		if !reflect.DeepEqual(re, s) {
			t.Fatalf("decode∘encode not identity:\nfirst:  %+v\nsecond: %+v", s, re)
		}
	})
}
