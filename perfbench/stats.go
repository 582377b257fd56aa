package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"willow/internal/cluster"
	"willow/internal/obs"
	"willow/internal/power"
)

// quantile returns the q-quantile (0 <= q <= 1) of raw samples,
// interpolating linearly between the two nearest ranks of a sorted copy.
// Percentiles come from every raw sample, never from histogram buckets:
// obs.Histogram's 1.5x buckets would step a p50 between bucket bounds.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// sum is the total of samples.
func sum(samples []float64) float64 {
	var total float64
	for _, v := range samples {
		total += v
	}
	return total
}

// mean is the arithmetic mean, 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm is the least common multiple of positive integers.
func lcm(xs ...int) int {
	out := 1
	for _, x := range xs {
		out = out / gcd(out, x) * x
	}
	return out
}

// cycleTicks returns the shortest tick window that holds a whole number
// of every periodic schedule in the run, and the pass that window is cut
// into. The schedules are supply allocation every η1 ticks,
// consolidation every η2, and, for a recorded supply trace (which wraps),
// one pass of the trace at η1 ticks per entry. Any window of that many
// consecutive ticks does the same mix of work, so a run measures whole
// windows. The pass is one trace pass when there is a trace, since the
// deficit steps set where the slow ticks fall; otherwise it is one
// allocation period of η1 ticks.
func cycleTicks(cfg cluster.Config, eta1, eta2 int) (window, pass int) {
	window = lcm(eta1, eta2)
	if tr, ok := cfg.Supply.(power.Trace); ok && len(tr) > 0 {
		pass = len(tr) * eta1
		return lcm(window, pass), pass
	}
	return window, eta1
}

// interval is one wall-clock span in nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

// overlap returns how much of req the intervals in spans cover. spans
// must be sorted by start and must not overlap one another, which holds
// for the Daemon.Step calls of a single tick pacer. It attributes a
// request's tick-boundary wait: the part of its lifetime during which
// the daemon was stepping and so held the lock every API call needs.
func overlap(spans []interval, req interval) int64 {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > req.start })
	var total int64
	for ; i < len(spans) && spans[i].start < req.end; i++ {
		lo, hi := max(spans[i].start, req.start), min(spans[i].end, req.end)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// histDelta returns the sum and count a histogram family gained between
// two scrapes of /metrics, from its _sum and _count series. A family
// absent from a scrape counts as empty.
func histDelta(before, after *obs.Scrape, name string, labels ...obs.Label) (sum, count float64) {
	get := func(s *obs.Scrape, series string) float64 {
		v, _ := s.Value(series, labels...)
		return v
	}
	return get(after, name+"_sum") - get(before, name+"_sum"),
		get(after, name+"_count") - get(before, name+"_count")
}

// counterDelta returns what a counter or gauge series gained between two
// scrapes.
func counterDelta(before, after *obs.Scrape, name string, labels ...obs.Label) float64 {
	a, _ := after.Value(name, labels...)
	b, _ := before.Value(name, labels...)
	return a - b
}

// retainedRSSMB is the process's resident set size in MiB once garbage
// is collected and returned to the OS: the memory the run holds. The
// peak is not reported because it depends on when collections happen
// to start.
func retainedRSSMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// fsType names the filesystem holding dir, for the run metadata: WAL
// fsync latency depends on it more than on anything the code does.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
