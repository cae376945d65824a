// Command simctl is the shell client of the simd simulation service:
//
//	simctl -addr http://127.0.0.1:8077 workloads
//	simctl run -workload STREAM -config hbm -size 8GB -threads 128
//	simctl advise -workload GUPS -size 8GB -threads 64
//	simctl advise -structs app.json
//	simctl campaign -workloads STREAM,GUPS -configs dram,hbm,cache \
//	    -sizes 2GB,8GB,24GB -threads 64,128
//	simctl campaign -fidelity advise -workloads GUPS -sizes 2GB,8GB,32GB
//	simctl cluster -workload MiniFE -size 120GB -threads 64 -nodes 2,4,8,12,16
//	simctl campaign -fidelity cluster -workloads MiniFE -sizes 120GB -nodes 2,4,8,12
//	simctl campaign -spec sweep.json -async
//	simctl campaign -experiments all
//	simctl job j000001
//	simctl job -timings j000001
//	simctl watch j000001
//	simctl -request-id deploy-42 run -workload STREAM -config hbm -size 8GB
//
// Stored traces (the durable trace store behind /v1/traces):
//
//	simctl trace upload app.ndjson.gz        # NDJSON/CSV, gzip, or binary
//	simctl trace list
//	simctl trace show  <id>
//	simctl trace replay -id <id> -config cache
//	simctl trace delete <id>
//	simctl campaign -fidelity replay -traces <id> -configs dram,hbm,cache
//
// Campaign submissions stream the job's progress to stderr and render
// the aggregate tables to stdout when the sweep completes. advise
// renders the ranked memory-mode recommendation table; cluster
// renders the multi-node scaling table with the minimum HBM-fitting
// node count (the paper's §IV-C decomposition rule).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/--help already printed usage; exit 0
		}
		fmt.Fprintln(os.Stderr, "simctl:", err)
		os.Exit(1)
	}
}

const usage = `usage: simctl [-addr URL] <workloads|experiments|run|advise|cluster|trace|campaign|job|watch> [flags]`

// run dispatches the subcommands; it is the testable body of the
// command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", envOr("SIMD_ADDR", "http://127.0.0.1:8077"), "simd base URL")
	retries := fs.Int("retries", 0, "retry attempts for a busy or unreachable server (0 = default, negative disables)")
	requestID := fs.String("request-id", "", "X-Request-Id to send (correlates server logs, job records and journal; default: server-generated)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("%s", usage)
	}
	client := service.NewClient(*addr)
	client.MaxRetries = *retries
	client.RequestID = *requestID
	// Narrate every backoff so a throttled sweep doesn't look hung.
	// The final failure still reaches main() and exits non-zero.
	client.OnRetry = func(attempt int, wait time.Duration, err error) {
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
			fmt.Fprintf(stderr, "simctl: server busy, retrying in %s (attempt %d)\n",
				wait.Round(time.Millisecond), attempt)
			return
		}
		fmt.Fprintf(stderr, "simctl: request failed (%v), retrying in %s (attempt %d)\n",
			err, wait.Round(time.Millisecond), attempt)
	}
	ctx := context.Background()
	switch rest[0] {
	case "workloads":
		return cmdWorkloads(ctx, client, stdout)
	case "experiments":
		return cmdExperiments(ctx, client, stdout)
	case "run":
		return cmdRun(ctx, client, rest[1:], stdout, stderr)
	case "advise":
		return cmdAdvise(ctx, client, rest[1:], stdout, stderr)
	case "cluster":
		return cmdCluster(ctx, client, rest[1:], stdout, stderr)
	case "trace":
		return cmdTrace(ctx, client, rest[1:], stdout, stderr)
	case "campaign":
		return cmdCampaign(ctx, client, rest[1:], stdout, stderr)
	case "job":
		return cmdJob(ctx, client, rest[1:], stdout, stderr)
	case "watch":
		return cmdWatch(ctx, client, rest[1:], stdout, stderr)
	}
	return fmt.Errorf("unknown subcommand %q\n%s", rest[0], usage)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cmdWorkloads(ctx context.Context, c *service.Client, stdout io.Writer) error {
	wls, err := c.Workloads(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-14s %-15s %-12s %-10s %s\n", "name", "type", "pattern", "max scale", "metric")
	for _, w := range wls {
		fmt.Fprintf(stdout, "%-14s %-15s %-12s %-10s %s\n", w.Name, w.Class, w.Pattern, w.MaxScale, w.Metric)
	}
	return nil
}

func cmdExperiments(ctx context.Context, c *service.Client, stdout io.Writer) error {
	exps, err := c.Experiments(ctx)
	if err != nil {
		return err
	}
	for _, e := range exps {
		fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
	}
	return nil
}

func cmdRun(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name")
	cfg := fs.String("config", "dram", "memory configuration: dram|hbm|cache|interleave|hybrid:F")
	size := fs.String("size", "8GB", "problem size")
	threads := fs.Int("threads", 64, "thread count")
	sku := fs.String("sku", "", "KNL SKU (default 7210)")
	fidelity := fs.String("fidelity", "", "execution fidelity: model (default) | trace")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := c.Run(ctx, service.RunRequest{
		Workload: *wl, Config: *cfg, Size: *size, Threads: *threads, SKU: *sku, Fidelity: *fidelity,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(stdout, resp)
	}
	tag := ""
	if resp.Cached {
		tag = " (cached)"
	}
	if resp.Unavailable != "" {
		fmt.Fprintf(stdout, "%s %s %s threads=%d: not measurable (%s)%s\n",
			resp.Workload, resp.Config, resp.Size, resp.Threads, resp.Unavailable, tag)
		return nil
	}
	fmt.Fprintf(stdout, "%s %s %s threads=%d: %s = %.4g%s\n",
		resp.Workload, resp.Config, resp.Size, resp.Threads, resp.Metric, resp.Value, tag)
	return nil
}

// cmdAdvise asks the service which memory mode an application should
// use and renders the ranked recommendation table.
func cmdAdvise(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl advise", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name (structure set derived from its access pattern; requires -size)")
	size := fs.String("size", "", "application footprint for -workload")
	structsPath := fs.String("structs", "", "JSON file with explicit structures ([{name,footprint,seq_bytes,...}])")
	threads := fs.Int("threads", 64, "thread count")
	sku := fs.String("sku", "", "KNL SKU (default 7210)")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := service.AdviseRequest{Workload: *wl, Size: *size, Threads: *threads, SKU: *sku}
	if *structsPath != "" {
		structs, err := service.LoadStructures(*structsPath)
		if err != nil {
			return err
		}
		req.Structures = structs
	}
	resp, err := c.Advise(ctx, req)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(stdout, resp)
	}
	fmt.Fprint(stdout, service.RenderAdvice(resp))
	return nil
}

// cmdCluster asks the service how a workload scales across node
// counts and renders the scaling table with the §IV-C decomposition
// answer.
func cmdCluster(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name")
	size := fs.String("size", "", "GLOBAL problem size, decomposed across the nodes")
	threads := fs.Int("threads", 64, "per-node thread count")
	nodesFlag := fs.String("nodes", "", "comma-separated node counts (default 1,2,4,8,12,16)")
	factor := fs.Float64("factor", 1, "working-set factor for the capacity rule (>= 1)")
	sku := fs.String("sku", "", "KNL SKU (default 7210)")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := service.ClusterRequest{
		Workload: *wl, Size: *size, Threads: *threads, SKU: *sku, WorkingSetFactor: *factor,
	}
	if *nodesFlag != "" {
		nodes, err := parseInts(*nodesFlag)
		if err != nil {
			return fmt.Errorf("bad node count list: %w", err)
		}
		req.Nodes = nodes
	}
	resp, err := c.Cluster(ctx, req)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(stdout, resp)
	}
	fmt.Fprint(stdout, service.RenderCluster(resp))
	return nil
}

// cmdTrace dispatches the stored-trace subcommands: upload a trace
// into the durable store, list/show/delete stored traces, and replay
// one through the scaled cache hierarchy.
func cmdTrace(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	const traceUsage = `usage: simctl trace <upload FILE|list|show ID|delete ID|replay -id ID -config CFG>`
	if len(args) == 0 {
		return fmt.Errorf("%s", traceUsage)
	}
	switch args[0] {
	case "upload":
		if len(args) != 2 {
			return fmt.Errorf("usage: simctl trace upload <file>")
		}
		f, err := os.Open(args[1])
		if err != nil {
			return err
		}
		defer f.Close()
		resp, err := c.UploadTrace(ctx, f)
		if err != nil {
			return err
		}
		state := "stored"
		if resp.Existed {
			state = "already stored (deduplicated)"
		}
		fmt.Fprintf(stdout, "trace %s %s\n", resp.ID, state)
		fmt.Fprintf(stdout, "accesses:  %d (%d reads, %d writes)\n", resp.Accesses, resp.Reads, resp.Writes)
		fmt.Fprintf(stdout, "footprint: %s, %d bytes on disk\n", resp.Footprint, resp.FileBytes)
		return nil
	case "list":
		traces, err := c.Traces(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, service.RenderTraces(traces))
		return nil
	case "show":
		if len(args) != 2 {
			return fmt.Errorf("usage: simctl trace show <id>")
		}
		info, err := c.Trace(ctx, args[1])
		if err != nil {
			return err
		}
		return printJSON(stdout, info)
	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("usage: simctl trace delete <id>")
		}
		if err := c.DeleteTrace(ctx, args[1]); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace %s deleted\n", args[1])
		return nil
	case "replay":
		return cmdTraceReplay(ctx, c, args[1:], stdout, stderr)
	}
	return fmt.Errorf("unknown trace subcommand %q\n%s", args[0], traceUsage)
}

// cmdTraceReplay runs one stored trace through the hierarchy.
func cmdTraceReplay(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl trace replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("id", "", "stored trace content address")
	cfg := fs.String("config", "cache", "memory configuration: dram|hbm|cache|interleave|hybrid:F")
	sku := fs.String("sku", "", "KNL SKU (default 7210)")
	passes := fs.Int("passes", 0, "replay passes, last one measured (default 1: cold caches)")
	noPrefetch := fs.Bool("no-prefetch", false, "disable the stream prefetcher")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := service.ReplayRequest{Trace: *id, Config: *cfg, SKU: *sku, Passes: *passes}
	if *noPrefetch {
		pf := false
		req.Prefetch = &pf
	}
	resp, err := c.Replay(ctx, req)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(stdout, resp)
	}
	fmt.Fprint(stdout, service.RenderReplay(resp))
	return nil
}

// parseList splits a comma list, dropping empties.
func parseList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range parseList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad thread count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdCampaign(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "JSON campaign spec file (flags below override its axes)")
	name := fs.String("name", "", "campaign name")
	workloads := fs.String("workloads", "", "comma-separated workload names")
	traces := fs.String("traces", "", "comma-separated stored trace ids (replay fidelity only)")
	configs := fs.String("configs", "", "comma-separated memory configurations")
	sizes := fs.String("sizes", "", "comma-separated problem sizes")
	gridFrom := fs.String("grid-from", "", "geometric size grid start")
	gridTo := fs.String("grid-to", "", "geometric size grid end")
	gridPoints := fs.Int("grid-points", 0, "geometric size grid point count")
	threads := fs.String("threads", "", "comma-separated thread counts (default 64)")
	nodes := fs.String("nodes", "", "comma-separated node counts (cluster fidelity only)")
	experiments := fs.String("experiments", "", "comma-separated paper experiment IDs, or 'all'")
	sku := fs.String("sku", "", "KNL SKU (default 7210)")
	fidelity := fs.String("fidelity", "", "execution fidelity: model (default) | trace | replay | advise | cluster")
	async := fs.Bool("async", false, "submit and print the job ID without waiting")
	asJSON := fs.Bool("json", false, "print the raw JSON result")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec campaign.Spec
	if *specPath != "" {
		buf, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(buf, &spec); err != nil {
			return fmt.Errorf("spec %s: %w", *specPath, err)
		}
	}
	if *name != "" {
		spec.Name = *name
	}
	if *workloads != "" {
		spec.Workloads = parseList(*workloads)
	}
	if *traces != "" {
		spec.Traces = parseList(*traces)
	}
	if *configs != "" {
		spec.Configs = parseList(*configs)
	}
	if *sizes != "" {
		spec.Sizes = parseList(*sizes)
	}
	if *gridFrom != "" || *gridTo != "" || *gridPoints > 0 {
		// Merge with a spec file's grid so a single flag can adjust
		// one axis of it.
		grid := campaign.Grid{}
		if spec.SizeGrid != nil {
			grid = *spec.SizeGrid
		}
		if *gridFrom != "" {
			grid.From = *gridFrom
		}
		if *gridTo != "" {
			grid.To = *gridTo
		}
		if *gridPoints > 0 {
			grid.Points = *gridPoints
		}
		spec.SizeGrid = &grid
	}
	if *threads != "" {
		th, err := parseInts(*threads)
		if err != nil {
			return err
		}
		spec.Threads = th
	}
	if *nodes != "" {
		ns, err := parseInts(*nodes)
		if err != nil {
			return fmt.Errorf("bad node count list: %w", err)
		}
		spec.Nodes = ns
	}
	if *experiments != "" {
		spec.Experiments = parseList(*experiments)
	}
	if *sku != "" {
		spec.SKU = *sku
	}
	if *fidelity != "" {
		spec.Fidelity = *fidelity
	}

	resp, err := c.SubmitCampaign(ctx, spec, false)
	if err != nil {
		return err
	}
	if *async {
		fmt.Fprintf(stdout, "job %s submitted (%s)\n", resp.Job.ID, resp.Job.State)
		return nil
	}

	// A job the POST answered finished (a cached resubmission) carries
	// its result; any other is followed on the progress stream, then
	// its result fetched.
	final := resp
	answered := resp.Job.State == service.JobFailed || (resp.Job.State == service.JobDone && resp.Result != nil)
	if !answered {
		err = c.StreamJob(ctx, resp.Job.ID, func(info service.JobInfo) {
			if info.Total > 0 {
				fmt.Fprintf(stderr, "\rjob %s: %s %d/%d", info.ID, info.State, info.Done, info.Total)
			} else {
				fmt.Fprintf(stderr, "\rjob %s: %s", info.ID, info.State)
			}
		})
		fmt.Fprintln(stderr)
		if err != nil {
			return err
		}
		if final, err = c.WaitResult(ctx, resp.Job.ID); err != nil {
			return err
		}
	}
	if final.Job.State == service.JobFailed {
		return fmt.Errorf("campaign failed: %s", final.Job.Error)
	}
	if *asJSON {
		return printJSON(stdout, final.Result)
	}
	return renderResult(stdout, final.Result)
}

func renderResult(stdout io.Writer, res *service.CampaignResult) error {
	if res == nil {
		return fmt.Errorf("no result returned")
	}
	from := "computed"
	if res.Cached {
		from = "served from campaign cache"
	}
	fmt.Fprintf(stdout, "campaign %s: %d points (%d before dedup), %d point-cache hits, %.3g ms, %s\n",
		shortKey(res.Key), res.Points, res.Expanded, res.CacheHits, res.ElapsedMS, from)
	for _, tbl := range res.Tables {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tbl)
	}
	for _, e := range res.Experiments {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, e.Rendered)
	}
	return nil
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

func cmdJob(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl job", flag.ContinueOnError)
	fs.SetOutput(stderr)
	timings := fs.Bool("timings", false, "render the job's stage timeline instead of raw JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: simctl job [-timings] <id>")
	}
	resp, err := c.Job(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	if *timings {
		fmt.Fprint(stdout, service.RenderTimings(resp.Job))
		// If the server still retains the execution trace for the
		// request that submitted this job, render its span tree below
		// the stage timeline. Traces are a bounded debug ring, so a
		// miss (evicted, sampled out, or an older server) is normal
		// and silently skipped.
		if resp.Job.RequestID != "" {
			if tr, err := c.DebugTrace(ctx, resp.Job.RequestID); err == nil {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, service.RenderSpanTree(tr))
			}
		}
		return nil
	}
	return printJSON(stdout, resp)
}

// cmdWatch follows one job's live SSE event feed (/v1/jobs/{id}/events),
// printing each state transition, completed point and progress tick as
// it is published. Exits when the terminal event arrives.
func cmdWatch(ctx context.Context, c *service.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simctl watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print each event as one line of JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: simctl watch [-json] <id>")
	}
	id := fs.Arg(0)
	return c.WatchJob(ctx, id, func(ev events.Event) {
		if *asJSON {
			// Compact NDJSON, one event per line, so feeds pipe into
			// line-oriented tools.
			if raw, err := json.Marshal(ev); err == nil {
				fmt.Fprintf(stdout, "%s\n", raw)
			}
			return
		}
		switch ev.Type {
		case events.TypeState:
			line := fmt.Sprintf("%s %s", ev.Job, ev.State)
			if ev.Total > 0 {
				line += fmt.Sprintf(" %d/%d", ev.Done, ev.Total)
			}
			if ev.Error != "" {
				line += " error=" + ev.Error
			}
			fmt.Fprintln(stdout, line)
		case events.TypePoint:
			tag := ""
			if ev.Cached {
				tag = " (cached)"
			}
			if ev.Error != "" {
				tag += " error=" + ev.Error
			}
			fmt.Fprintf(stdout, "  point %s %s%s\n", ev.Workload, shortKey(ev.Point), tag)
		case events.TypeProgress:
			fmt.Fprintf(stdout, "  progress %d/%d\n", ev.Done, ev.Total)
		}
	})
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
