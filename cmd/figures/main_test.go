package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput regenerates `figures`, `figures -csv` and
// `figures -verify -md` and requires the recorded output byte for byte.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden      string
		csv, verify bool
	}{
		{golden: "figures.txt"},
		{golden: "figures.csv", csv: true},
		{golden: "verify.md", verify: true},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			failed, err := run(&got, "all", tc.csv, tc.verify, tc.verify)
			if err != nil || failed != 0 {
				t.Fatalf("run: %d failed checks, err %v", failed, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from %s:\n%s", tc.golden, got.String())
			}
		})
	}
}
