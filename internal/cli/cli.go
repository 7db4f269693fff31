// Package cli carries the plumbing the commands share: device and workload
// resolution for the common flag spellings, the telemetry, cache and shard
// flag bundles, and the one place an Exec ladder is assembled from them
// (ExecFlags.Build) and torn down again (Session.Close). Keeping
// this here means every binary exposes identical observability surfaces and
// an identically wired ladder without duplicating the glue.
package cli

import (
	"cmp"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/remote"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// DeviceNames lists the accepted -device spellings.
const DeviceNames = "volta | turing | ampere | volta40"

// Device resolves a -device flag value to a modeled GPU.
func Device(name string) (gpu.Device, error) {
	switch name {
	case "volta":
		return gpu.VoltaV100(), nil
	case "turing":
		return gpu.TuringRTX2060(), nil
	case "ampere":
		return gpu.AmpereRTX3070(), nil
	case "volta40":
		return gpu.VoltaV100().WithSMs(40), nil
	default:
		return gpu.Device{}, fmt.Errorf("unknown device %q (want %s)", name, DeviceNames)
	}
}

// FindWorkload resolves one full workload name ("suite/name") from the
// study set.
func FindWorkload(name string) (*workload.Workload, error) {
	w := workload.Find(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (try -list)", name)
	}
	return w, nil
}

// Workloads resolves a comma-separated list of full workload names.
func Workloads(csv string) ([]*workload.Workload, error) {
	var ws []*workload.Workload
	for _, n := range strings.Split(csv, ",") {
		w, err := FindWorkload(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// FlagConflicts rejects incompatible flag combinations after parsing: each
// pair names two flags that must not both be set on the command line. It
// returns a single clear error naming the first conflicting pair, so
// mutually exclusive modes (-suite-dedup with -w, say) fail at flag
// validation instead of somewhere deep in the pipeline. A nil fs checks
// the default flag set.
func FlagConflicts(fs *flag.FlagSet, pairs ...[2]string) error {
	if fs == nil {
		fs = flag.CommandLine
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, p := range pairs {
		if set[p[0]] && set[p[1]] {
			return fmt.Errorf("-%s and -%s are mutually exclusive", p[0], p[1])
		}
	}
	return nil
}

// ParseWeights parses pkaserve's -tenants list, "tenant=weight,...".
// Weights must be positive integers; an empty string is an empty map.
func ParseWeights(csv string) (map[string]int, error) {
	out := map[string]int{}
	if strings.TrimSpace(csv) == "" {
		return out, nil
	}
	for _, pair := range strings.Split(csv, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant weight %q: want name=weight", pair)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant weight %q: weight must be a positive integer", pair)
		}
		out[name] = w
	}
	return out, nil
}

// ObsFlags is the telemetry flag bundle both CLIs register. Telemetry is
// off (and the Observer nil) unless at least one flag is set; everything
// it records is observe-only, so results are byte-identical either way.
type ObsFlags struct {
	Trace     string // Chrome trace_event JSON output path
	Metrics   string // Prometheus text exposition output path
	Audit     string // decision-audit NDJSON output path
	DebugAddr string // host:port for pprof + expvar + /metrics

	observer *obs.Observer
}

// Register installs the telemetry flags on the flag set (the default set
// when fs is nil).
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace (chrome://tracing, Perfetto) of pipeline spans to this file")
	fs.StringVar(&f.Metrics, "metrics", "", "write Prometheus text-format metrics to this file at exit")
	fs.StringVar(&f.Audit, "audit", "", "write PKS/PKP decision-audit records (NDJSON) to this file")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof, expvar and /metrics on this host:port")
}

// Active reports whether any telemetry output was requested.
func (f *ObsFlags) Active() bool {
	return f.Trace != "" || f.Metrics != "" || f.Audit != "" || f.DebugAddr != ""
}

// Use installs a pre-built Observer for Start to adopt instead of
// creating its own. Commands that are always observed (the study server)
// use this to share one observer between their serving surfaces and the
// flag bundle's artifact writers. Call it before Start.
func (f *ObsFlags) Use(o *obs.Observer) { f.observer = o }

// Start builds the Observer when telemetry was requested (or adopts the
// one Use installed), installs it as the process-wide pool observer, and
// starts the debug server when asked. It returns nil (telemetry fully
// disabled) when no flag was set and no observer was installed.
func (f *ObsFlags) Start() (*obs.Observer, error) {
	if f.observer == nil && !f.Active() {
		return nil, nil
	}
	o := f.observer
	if o == nil {
		o = obs.NewObserver()
		f.observer = o
	}
	o.RegisterBuildInfo()
	parallel.SetObserver(o.PoolMetrics())
	if f.DebugAddr != "" {
		ln, err := net.Listen("tcp", f.DebugAddr)
		if err != nil {
			return nil, fmt.Errorf("debug server: %w", err)
		}
		go http.Serve(ln, debugMux(o)) //nolint:errcheck // best-effort debug endpoint
		fmt.Fprintf(os.Stderr, "debug server on http://%s/ (pprof, expvar, /metrics)\n", ln.Addr())
	}
	return o, nil
}

// debugMux serves the standard pprof and expvar handlers plus the obs
// registry's Prometheus exposition on its own mux, so enabling the debug
// server never touches http.DefaultServeMux.
func debugMux(o *obs.Observer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", o)
	return mux
}

// Finish writes every requested artifact from the Observer Start built.
// It is a no-op when telemetry was never started.
func (f *ObsFlags) Finish() error {
	o := f.observer
	if o == nil {
		return nil
	}
	o.SyncCacheStats()
	if f.Trace != "" {
		if err := WriteFile(f.Trace, o.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if f.Metrics != "" {
		if err := WriteFile(f.Metrics, o.Metrics.WritePrometheus); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if f.Audit != "" {
		if err := WriteFile(f.Audit, o.Audit.WriteNDJSON); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
	}
	return nil
}

// CacheFlags is the persistent-artifact-cache flag bundle every binary
// registers: -cache-dir enables the on-disk content-addressed store of
// per-kernel simulation outcomes and -cache-max-mb bounds it. The cache only
// changes wall-clock time — cached and fresh runs render byte-identical
// output, because every entry is keyed by the full simulation input. Its
// counters are reported once, in the -metrics exposition (pka_cache_* and
// pka_exec_tier_*).
type CacheFlags struct {
	Dir   string // artifact store directory; empty disables the disk cache
	MaxMB int64  // size bound in MiB; 0 applies the store default

	store *artifact.Store
}

// Register installs the cache flags on the flag set (the default set when
// fs is nil).
func (f *CacheFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Dir, "cache-dir", "", "persist per-kernel simulation outcomes in this directory (content-addressed; reused across runs)")
	fs.Int64Var(&f.MaxMB, "cache-max-mb", 0, "artifact cache size bound in MiB (0 = default)")
}

// Open opens the artifact store when -cache-dir was given; it returns
// (nil, nil) when the disk cache is disabled, and the returned store is
// nil-safe everywhere it is consumed.
func (f *CacheFlags) Open() (*artifact.Store, error) {
	if f.Dir == "" {
		return nil, nil
	}
	st, err := artifact.Open(f.Dir, artifact.Options{MaxBytes: f.MaxMB << 20})
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	f.store = st
	return st, nil
}

// Finish closes the store. Safe to call when the cache was never opened.
func (f *CacheFlags) Finish() error {
	if f.store != nil {
		return f.store.Close()
	}
	return nil
}

// ExecFlags bundles the three flag groups an Exec ladder is assembled from.
// A command registers the groups it exposes; a group it leaves unregistered
// keeps its zero value, which builds nothing.
type ExecFlags struct {
	Obs   ObsFlags
	Cache CacheFlags
	Shard ShardFlags
}

// Session is an assembled Exec ladder with everything it opened.
type Session struct {
	// Observer is nil when no telemetry was requested.
	Observer *obs.Observer
	// Store is nil without -cache-dir.
	Store *artifact.Store
	Exec  *sampling.Exec

	fl     *ExecFlags
	closed bool
}

// Build assembles the ladder the flags describe — scheduler of width par,
// artifact store, fleet shard, per-tier metrics — and
// registers its cache counters with the observer. It is the only wiring of
// these pieces outside tests.
func (f *ExecFlags) Build(par int) (*Session, error) {
	observer, err := f.Obs.Start()
	if err != nil {
		return nil, err
	}
	store, err := f.Cache.Open()
	if err != nil {
		return nil, err
	}
	exec := sampling.NewExec(parallel.NewScheduler(par), store)
	shard, err := f.Shard.Start(observer)
	if err != nil {
		store.Close() //nolint:errcheck // nothing written yet
		return nil, err
	}
	if shard != nil {
		exec.SetShard(shard)
	}
	exec.SetMetrics(observer.ExecMetrics())
	observer.RegisterCacheStats(exec.CacheStats)
	return &Session{Observer: observer, Store: store, Exec: exec, fl: f}, nil
}

// Close tears the session down in dependency order: write the telemetry
// artifacts, then close the store. Every step runs even if
// an earlier one failed; the first error is returned. Closing twice, or a
// session that opened nothing, is a no-op.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.fl.Obs.Finish()
	if e := s.fl.Cache.Finish(); err == nil {
		err = e
	}
	return err
}

// ShardFlags is the fleet-cache flag bundle: -shard joins the study's Exec
// ladder to a fleet of pkad cache peers. It is the fleet's one statement of
// membership: the client places every key on two of the peers by
// rendezvous hashing, replicates outcomes to them, and asks them after the
// local disk and before simulating (mem → disk → shard → sim). Like the
// artifact cache, the shard tier only changes where outcomes come from:
// output stays byte-identical with or without it.
type ShardFlags struct {
	Peers string // comma-separated pkad URLs; empty disables
}

// Register installs the shard flag on the flag set (the default set when
// fs is nil).
func (f *ShardFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Peers, "shard", "", "comma-separated pkad URLs forming the fleet cache")
}

// Start builds the fleet-cache client -shard names, reporting to the
// observer's shard metrics; it returns nil without -shard.
func (f *ShardFlags) Start(o *obs.Observer) (*remote.ShardClient, error) {
	if f.Peers == "" {
		return nil, nil
	}
	peers := splitURLs(f.Peers)
	if len(peers) == 0 {
		return nil, fmt.Errorf("-shard: no peer URLs in %q", f.Peers)
	}
	c := remote.NewShardClient(remote.ShardOptions{
		Peers:   peers,
		Metrics: o.ShardMetrics(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	fmt.Fprintf(os.Stderr, "fleet cache sharded over %d peer(s)\n", len(c.Members()))
	return c, nil
}

// splitURLs splits a comma-separated URL list (the -shard spelling),
// dropping blanks.
func splitURLs(csv string) []string {
	var urls []string
	for _, u := range strings.Split(csv, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// WriteFile renders into the file at path, reporting the first error of
// create, render and close. The file is created at render's first Write, so
// a render that fails before writing leaves an existing file as it was; one
// that succeeds without writing leaves an empty file.
func WriteFile(path string, render func(w io.Writer) error) error {
	lf := &lazyFile{path: path}
	err := render(lf)
	if err == nil && lf.f == nil {
		lf.f, err = os.Create(path)
	}
	if lf.f != nil {
		err = cmp.Or(err, lf.f.Close())
	}
	return err
}

// lazyFile creates its file at the first Write.
type lazyFile struct {
	path string
	f    *os.File
}

func (l *lazyFile) Write(p []byte) (int, error) {
	if l.f == nil {
		f, err := os.Create(l.path)
		if err != nil {
			return 0, err
		}
		l.f = f
	}
	return l.f.Write(p)
}
