package telemetry

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
	if Kind(0).String() == "" || Kind(200).String() == "" {
		t.Error("out-of-range kinds must still render something")
	}
}

func TestParseKindSet(t *testing.T) {
	ks, err := ParseKindSet("migration, throttle")
	if err != nil {
		t.Fatal(err)
	}
	if !ks.Has(KindMigration) || !ks.Has(KindThermalThrottle) || ks.Has(KindFailure) {
		t.Errorf("parsed set %b wrong", ks)
	}
	if _, err := ParseKindSet("migration,nope"); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, k := range Kinds() {
		if !AllKinds.Has(k) {
			t.Errorf("AllKinds misses %v", k)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Event{
		Tick: 42, Kind: KindMigration,
		App: 7, From: 3, To: 11, Hops: 4,
		Cause: "deficit", Watts: 63.5, Bytes: 2, Local: true,
	}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed the event: %+v != %+v", out, in)
	}
	if _, err := Decode([]byte(`{"t":1}`)); err == nil {
		t.Error("kind-less line accepted")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWriterReadAll(t *testing.T) {
	events := []Event{
		{Tick: 0, Kind: KindBudgetChange, Level: 2, Watts: 4000, Demand: 3600},
		{Tick: 3, Kind: KindSleepWake, Server: 5, Cause: "sleep", Watts: 150},
		{Tick: 9, Kind: KindQoSViolation, Server: 1, App: 4, Cause: "degraded", Watts: 10, Demand: 25},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		w.Publish(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(strings.NewReader(buf.String() + "\n")) // trailing blank line is skipped
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestMulti(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils must be nil")
	}
	var b Buffer
	if Multi(nil, &b) != Sink(&b) {
		t.Error("Multi of one sink must be that sink")
	}
	var other Buffer
	m := Multi(&other, &b)
	m.Publish(Event{Kind: KindMigration})
	m.Publish(Event{Kind: KindFailure})
	for name, got := range map[string]*Buffer{"first": &other, "second": &b} {
		if len(got.Events) != 2 || got.Events[0].Kind != KindMigration || got.Events[1].Kind != KindFailure {
			t.Errorf("%s sink saw %+v", name, got.Events)
		}
	}
}

// TestFileSinkKindFilter pins the -events-filter contract: the JSONL
// file holds exactly the kept kinds' lines, in publication order, while
// the summary describes every event published.
func TestFileSinkKindFilter(t *testing.T) {
	events := []Event{
		{Tick: 0, Kind: KindBudgetChange, Level: 1, Watts: 100, Demand: 80},
		{Tick: 0, Kind: KindMigration, App: 3, From: 1, To: 2, Watts: 40, Bytes: 1, Local: true},
		{Tick: 1, Kind: KindThermalThrottle, Server: 2, Watts: 90, Prev: 120, Demand: 110},
		{Tick: 1, Kind: KindQoSViolation, Server: 1, App: 4, Cause: "degraded", Watts: 10, Demand: 25},
		{Tick: 2, Kind: KindMigration, App: 5, From: 2, To: 0, Watts: 30, Bytes: 2},
		{Tick: 3, Kind: KindFailure, Server: 0, Cause: "fail", Count: 1, Watts: 30},
		{Tick: 3, Kind: KindThermalThrottle, Server: 1, Watts: 70, Prev: 95, Demand: 99},
	}
	keep := KindSet(0).With(KindMigration).With(KindThermalThrottle)
	dir := t.TempDir()
	stream, summary := dir+"/run.jsonl", dir+"/run.summary.txt"
	fs, err := OpenFileSink(stream, summary, "run", keep)
	if err != nil {
		t.Fatal(err)
	}
	var all Aggregator
	for _, e := range events {
		fs.Publish(e)
		all.Publish(e)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	kept := 0
	for _, e := range events {
		if !keep.Has(e.Kind) {
			continue
		}
		line, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
		kept++
	}
	got, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 4 || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("stream holds\n%s\nwant the %d kept events\n%s", got, kept, want.Bytes())
	}

	report, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if string(report) != all.Table("run").String() {
		t.Errorf("summary differs from the unfiltered stream's:\n%s", report)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(report), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			rows[f[0]] = f[1]
		}
	}
	for metric, want := range map[string]string{"events.budget": "1", "events.migration": "2", "events.throttle": "2", "events.failure": "1", "events.qos": "1"} {
		if rows[metric] != want {
			t.Errorf("summary row %s = %q, want %q:\n%s", metric, rows[metric], want, report)
		}
	}
}

func TestBufferReplay(t *testing.T) {
	var b Buffer
	b.Publish(Event{Tick: 1, Kind: KindFailure})
	b.Publish(Event{Tick: 2, Kind: KindMigration})
	var dst Buffer
	b.ReplayTo(&dst)
	b.ReplayTo(nil) // must not panic
	if len(dst.Events) != 2 || dst.Events[0].Tick != 1 || dst.Events[1].Tick != 2 {
		t.Errorf("replayed %+v", dst.Events)
	}
}

func TestAggregator(t *testing.T) {
	var a Aggregator
	if a.TickSpan() != 0 || a.ThrottleDutyCycle() != 0 {
		t.Error("zero aggregator not zero-valued")
	}
	if _, ok := a.BudgetUtilization(0); ok {
		t.Error("empty aggregator reports budget utilization")
	}
	a.Publish(Event{Tick: 0, Kind: KindBudgetChange, Level: 1, Watts: 100, Demand: 80})
	a.Publish(Event{Tick: 0, Kind: KindBudgetChange, Level: 1, Watts: 100, Demand: 60})
	a.Publish(Event{Tick: 4, Kind: KindMigration, From: 0, To: 3, Watts: 50, Bytes: 1, Local: true})
	a.Publish(Event{Tick: 9, Kind: KindThermalThrottle, Server: 1})
	if a.Total() != 4 {
		t.Errorf("Total = %d, want 4", a.Total())
	}
	if a.TickSpan() != 10 {
		t.Errorf("TickSpan = %d", a.TickSpan())
	}
	// 1 throttle over 10 ticks × 4 servers (max index 3).
	if got := a.ThrottleDutyCycle(); got != 1.0/40 {
		t.Errorf("ThrottleDutyCycle = %v", got)
	}
	if u, ok := a.BudgetUtilization(1); !ok || u != 0.7 {
		t.Errorf("BudgetUtilization(1) = %v, %v", u, ok)
	}
	rows := map[string]string{}
	for _, row := range a.Table("summary").Rows {
		rows[row[0]] = row[1]
	}
	for metric, want := range map[string]string{"events.budget": "2", "events.migration": "1", "migration.bytes": "1", "migration.local": "1"} {
		if rows[metric] != want {
			t.Errorf("summary row %s = %q, want %q", metric, rows[metric], want)
		}
	}
}

// TestAggregatorEnergyRows is the efficiency-row golden: the rendered
// scoreboard section of the summary table is pinned verbatim, and a
// stream without energy events must not render it at all (the
// pre-energy byte-identity guarantee).
func TestAggregatorEnergyRows(t *testing.T) {
	var a Aggregator
	a.Publish(Event{Tick: 15, Kind: KindEnergy, Cause: "rack", Node: 3, Count: 16, Watts: 4000, Demand: 2500, Prev: 3600, Bytes: 120})
	a.Publish(Event{Tick: 15, Kind: KindEnergy, Cause: "rack", Node: 4, Count: 16, Watts: 6000, Demand: 3500, Prev: 5400, Bytes: 80})
	a.Publish(Event{Tick: 15, Kind: KindEnergy, Cause: "fleet", Node: 0, Count: 16, Watts: 10000, Demand: 6000, Prev: 9000, Bytes: 200})

	if wpj, ok := a.WorkPerJoule(); !ok || wpj != 0.6 {
		t.Errorf("WorkPerJoule = %v/%v, want 0.6", wpj, ok)
	}

	rendered := a.Table("summary").String()
	for _, want := range []string{
		"events.energy          3",
		"energy.joules          10000",
		"energy.work-joules     6000",
		"energy.heat-joules     9000",
		"energy.shed-joules     200",
		"energy.work-per-joule  0.6",
		"energy.rack.3.joules   4000",
		"energy.rack.4.joules   6000",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("summary missing row %q:\n%s", want, rendered)
		}
	}

	var quiet Aggregator
	quiet.Publish(Event{Tick: 0, Kind: KindBudgetChange, Level: 1, Watts: 100, Demand: 80})
	if plain := quiet.Table("summary").String(); strings.Contains(plain, "energy") {
		t.Errorf("energy rows rendered without energy events:\n%s", plain)
	}
}
