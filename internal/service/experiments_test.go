package service

import (
	"context"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/harness"
)

// TestCampaignExperimentsMatchGolden runs the whole paper as a
// campaign and requires every experiment's rendering to be its section
// of the recorded `figures` and `figures -csv` output, byte for byte.
func TestCampaignExperimentsMatchGolden(t *testing.T) {
	_, c := newTestServer(t)
	resp, err := c.SubmitCampaign(context.Background(), campaign.Spec{Experiments: []string{"all"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || len(resp.Result.Experiments) != len(harness.All()) {
		t.Fatalf("result %+v, want every experiment", resp.Result)
	}
	text := readGolden(t, "figures.txt")
	csv := readGolden(t, "figures.csv")
	for i, e := range resp.Result.Experiments {
		if want := harness.All()[i]; e.ID != want.ID || e.Title != want.Title {
			t.Fatalf("experiment %d is %s %q, want %s %q", i, e.ID, e.Title, want.ID, want.Title)
		}
		// figures prints each rendering followed by a blank line.
		if !strings.HasPrefix(text, e.Rendered+"\n") {
			t.Fatalf("%s: rendering is not its golden section:\n%s", e.ID, e.Rendered)
		}
		text = text[len(e.Rendered)+1:]
		if !strings.HasPrefix(csv, e.CSV) {
			t.Fatalf("%s: csv is not its golden section:\n%s", e.ID, e.CSV)
		}
		csv = csv[len(e.CSV):]
	}
	if text != "" || csv != "" {
		t.Fatalf("golden output left over: %d text bytes, %d csv bytes", len(text), len(csv))
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../harness/testdata/golden/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCampaignExperimentAxisCanonical pins the handler's resolution of
// the experiment axis: unknown ids are a 400 naming them, and
// duplicated, reordered and "all" spellings of one set are one
// campaign, with results in paper order.
func TestCampaignExperimentAxisCanonical(t *testing.T) {
	all := make([]string, 0, len(harness.All()))
	for _, e := range harness.All() {
		all = append(all, e.ID)
	}
	for _, tc := range []struct {
		name    string
		first   []string
		second  []string
		want    []string // result order; nil means a 400
		wantErr string
	}{
		{name: "unknown", first: []string{"fig2", "nope"}, wantErr: `unknown experiment "nope"`},
		{name: "unknown beside all", first: []string{"all", "nope"}, wantErr: `unknown experiment "nope"`},
		{name: "duplicate", first: []string{"fig2", "fig2", "table1"}, second: []string{"table1", "fig2"}, want: []string{"table1", "fig2"}},
		{name: "reordered", first: []string{"fig2", "table1"}, second: []string{"table1", "fig2"}, want: []string{"table1", "fig2"}},
		{name: "all vs explicit", first: []string{"all"}, second: all, want: all},
		{name: "all with duplicates", first: []string{"fig3", "all", "fig3"}, second: []string{"all"}, want: all},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestServer(t)
			ctx := context.Background()
			first, err := c.SubmitCampaign(ctx, campaign.Spec{Experiments: tc.first}, true)
			if tc.want == nil {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, tc.wantErr) {
					t.Fatalf("err = %v, want a 400 naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			second, err := c.SubmitCampaign(ctx, campaign.Spec{Experiments: tc.second}, true)
			if err != nil {
				t.Fatal(err)
			}
			if first.Result.Key != second.Result.Key || !second.Result.Cached {
				t.Fatalf("keys %s and %s (second cached %v), want one campaign",
					first.Result.Key, second.Result.Key, second.Result.Cached)
			}
			for _, res := range []*CampaignResult{first.Result, second.Result} {
				var got []string
				for _, e := range res.Experiments {
					got = append(got, e.ID)
				}
				if strings.Join(got, ",") != strings.Join(tc.want, ",") {
					t.Fatalf("experiments %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestExperimentSharesPointCache: a Fig. 2 cell and a /v1/run of the
// same point are one point-cache entry, in either order.
func TestExperimentSharesPointCache(t *testing.T) {
	run := RunRequest{Workload: "STREAM", Config: "dram", Size: "8GB", Threads: 64}
	fig2 := campaign.Spec{Experiments: []string{"fig2"}}
	ctx := context.Background()

	_, c := newTestServer(t)
	if _, err := c.SubmitCampaign(ctx, fig2, true); err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatal("/v1/run after the Fig. 2 experiment recomputed its point")
	}

	srv, c := newTestServer(t)
	if _, err := c.Run(ctx, run); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitCampaign(ctx, fig2, true); err != nil {
		t.Fatal(err)
	}
	if hits := srv.points.hits.Load(); hits != 1 {
		t.Fatalf("point-cache hits = %d after /v1/run then Fig. 2, want 1", hits)
	}
}
