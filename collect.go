package asrank

import (
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/collector"
)

// Live-collection API: a miniature BGP route collector and the speaker
// that replays simulated tables into it over real TCP sessions — the
// in-miniature Route Views whose archives the inference consumes.
type (
	// CollectorOptions configures a collector server.
	CollectorOptions = collector.Options
	// CollectorServer is a running BGP collector.
	CollectorServer = collector.Server
	// ReplayOptions configures a replay session.
	ReplayOptions = collector.ReplayOptions
	// MalformedPolicy selects how the collector treats UPDATEs that
	// fail to parse: tear the session down (default) or skip-and-count.
	MalformedPolicy = collector.MalformedPolicy

	// ChaosOptions configures deterministic fault injection.
	ChaosOptions = chaos.Options
	// ChaosInjector wraps connections, through its Dialer, with
	// seed-driven faults for robustness testing.
	ChaosInjector = chaos.Injector
)

// Malformed-UPDATE policies for CollectorOptions.Malformed.
const (
	MalformedTeardown = collector.MalformedTeardown
	MalformedSkip     = collector.MalformedSkip
)

// NewChaos builds a fault injector from the given options. Wire its
// Dialer into ReplayOptions.Dial to exercise the retry/resume machinery
// deterministically.
func NewChaos(opts ChaosOptions) *ChaosInjector { return chaos.New(opts) }

// ListenCollector starts a BGP collector on addr (e.g. "127.0.0.1:0").
// Close the returned server to stop it; Corpus() yields the route table
// its sessions have converged to.
func ListenCollector(addr string, opts CollectorOptions) (*CollectorServer, error) {
	return collector.Listen(addr, opts)
}

// Replay announces one vantage point's routes from a simulated
// collection to a collector over BGP.
func Replay(addr string, res *SimResult, vp uint32, opts ReplayOptions) error {
	return collector.Replay(addr, res, vp, opts)
}

// ReplayAll replays every vantage point concurrently.
func ReplayAll(addr string, res *SimResult, opts ReplayOptions) error {
	return collector.ReplayAll(addr, res, opts)
}
