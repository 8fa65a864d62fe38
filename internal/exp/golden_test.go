package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var (
	updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current experiment output")
	stressTier   = flag.Bool("stress", false, "include the nightly stress rows (E17 conformance at n=31)")
)

// TestMain maps the test binary's flags onto the sweep tier: -short drops
// the large sweep rows, so the quick loop skips them while full runs (and
// cmd/experiments) regenerate complete tables. The stress tier stays opt-in
// even for full runs: the golden tables are pinned without it (it is
// additive-only), and only the nightly workflow passes -stress. Note
// TestGoldenTables would fail under -stress — the extra E17 rows are
// deliberately not golden — so the nightly runs the conformance matrix alone
// with the flag.
func TestMain(m *testing.M) {
	flag.Parse()
	switch {
	case *stressTier:
		SetSweepTier(TierStress)
	case testing.Short():
		SetSweepTier(TierQuick)
	}
	os.Exit(m.Run())
}

// TestGoldenTables pins every experiment's rendered tables byte-for-byte at
// their fixed seeds. The paper-reproduction verdicts are the repository's
// ground truth: engine or harness refactors that claim behavior preservation
// prove it by leaving these files untouched (PR 2 had to re-verify every
// verdict by hand; this test makes that mechanical). Intentional changes —
// new rows, retuned parameters, a different RNG — regenerate with
//
//	go test ./internal/exp -run TestGoldenTables -update-golden
//
// and the diff of testdata/golden becomes part of the review.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tbl := range tables {
				tbl.Render(&buf)
				tbl.Markdown(&buf)
			}
			path := filepath.Join("testdata", "golden", e.ID+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (generate with -update-golden): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s tables differ from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, path, buf.Bytes(), want)
			}
		})
	}
}
