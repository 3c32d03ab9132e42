package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenPath is golden.json relative to the checkout root.
var goldenPath = filepath.Join("perfbench", "golden.json")

//go:embed golden.json
var goldenJSON []byte

// goldenFile holds, per workload, the digest of every operation's
// simulated output at defaultSeed, recorded with -record-golden.
type goldenFile struct {
	Seed    int64                        `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

func loadGolden() (goldenFile, error) { return parseGolden(goldenJSON) }

func parseGolden(data []byte) (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != defaultSeed {
		return g, fmt.Errorf("golden.json records seed %d, want %d", g.Seed, defaultSeed)
	}
	if g.Digests == nil {
		g.Digests = map[string]map[string]string{}
	}
	return g, nil
}

// recordGolden runs two rounds of w at the default seed and, when they
// agree, stores their digests in golden.json, keeping the other
// workloads' digests as the file on disk has them.
func recordGolden(ctx context.Context, w workload, dir string) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	g, err := parseGolden(data)
	if err != nil {
		return err
	}
	in, err := w.setup(ctx, defaultSeed, dir)
	if err != nil {
		return err
	}
	a, b := in.round(ctx), in.round(ctx)
	if err := in.close(); err != nil {
		return err
	}
	d := map[string]string{}
	for i, r := range a {
		if r.err != nil {
			return fmt.Errorf("%s: %w", r.name, r.err)
		}
		if b[i].digest != r.digest {
			return fmt.Errorf("%s: rounds disagree (%s vs %s)", r.name, r.digest, b[i].digest)
		}
		d[r.name] = r.digest
	}
	g.Digests[w.name] = d
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(out, '\n'), 0o644)
}
