package cone

import (
	"github.com/asrank-go/asrank/internal/obs"
)

// coneBuildDuration is the cone-engine metric. The engine label names
// the cone definition: recursive (transitive closure), bgp
// (BGP-observed), pp (provider/peer observed).
var coneBuildDuration = obs.Default().HistogramVec("asrank_cone_build_duration_seconds",
	"Wall time to compute one cone product.", obs.DurationBuckets, "engine")

// engineName maps the observed-cone crediting rule to its label.
func engineName(needEntry bool) string {
	if needEntry {
		return "pp"
	}
	return "bgp"
}
