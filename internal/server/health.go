package server

// The /healthz readiness view. PR 8 left /healthz as a bare liveness
// ping; with hot standbys in the picture an operator (or a failover
// harness, or a load balancer) needs to see at a glance whether a
// daemon can actually do its job: is the WAL healthy (mutations
// accepted), is the admission gate saturated (mutations shed), is a
// follower caught up enough to promote, has a handoff frozen the run.
// One JSON document answers all of it for both roles.

import "time"

// GateHealth is the admission gate's saturation picture.
type GateHealth struct {
	// Inflight mutations hold slots (of InflightLimit); Queued wait
	// behind them (of QueueLimit).
	Inflight      int `json:"inflight"`
	InflightLimit int `json:"inflight_limit"`
	Queued        int `json:"queued"`
	QueueLimit    int `json:"queue_limit"`
	// Saturated means the next mutation would be shed with 429.
	Saturated bool `json:"saturated"`
}

// ReplicationHealth is a follower's view of its replication link.
type ReplicationHealth struct {
	// Primary is the URL being followed.
	Primary string `json:"primary"`
	// Connected reports a live /v1/replicate stream right now.
	Connected bool `json:"connected"`
	// Records is the durable (fsync'd) journal length; PrimaryRecords
	// the primary's last-heard journal length; LagRecords the gap.
	Records        int `json:"records"`
	PrimaryRecords int `json:"primary_records"`
	LagRecords     int `json:"lag_records"`
	// ResumeTick is the boundary a promotion would start from;
	// PrimaryTick the primary's last-heard boundary; LagTicks the gap.
	ResumeTick  int `json:"resume_tick"`
	PrimaryTick int `json:"primary_tick"`
	LagTicks    int `json:"lag_ticks"`
	// CaughtUp means every record the primary has announced is durable
	// here and the resume tick has reached the primary's boundary.
	CaughtUp bool `json:"caught_up"`
	// PrimaryFrozen/PrimaryDone mirror the primary's last heartbeat.
	PrimaryFrozen bool `json:"primary_frozen,omitempty"`
	PrimaryDone   bool `json:"primary_done,omitempty"`
	// LastContactSeconds is the wall-clock age of the last record heard
	// (-1 before any contact); Reconnects counts stream re-establishes.
	LastContactSeconds float64 `json:"last_contact_seconds"`
	Reconnects         int64   `json:"reconnects"`
}

// HealthView is the GET /healthz payload for both roles. Tick is kept
// top-level for compatibility with PR 8 tooling (willow-crash polls
// it); for a follower it is the tick a promotion would resume at.
type HealthView struct {
	OK   bool   `json:"ok"`
	Role string `json:"role"` // "primary" or "follower"
	Tick int    `json:"tick"`
	// Ticks/Done describe the run (0/false on a follower that has not
	// yet heard a spec).
	Ticks int  `json:"ticks"`
	Done  bool `json:"done"`
	// Frozen marks a handed-off primary (tick loop stopped, journal
	// final); ResumedTick the boundary this incarnation started from
	// (nonzero after recovery or promotion).
	Frozen      bool `json:"frozen,omitempty"`
	ResumedTick int  `json:"resumed_tick,omitempty"`
	// WalOK is false once the sticky WAL failure has disabled
	// mutations; WalError carries the failure text.
	WalOK    bool   `json:"wal_ok"`
	WalError string `json:"wal_error,omitempty"`
	// ReplicationSubscribers counts connected followers (primary only).
	ReplicationSubscribers int `json:"replication_subscribers,omitempty"`

	Gate        *GateHealth        `json:"gate,omitempty"`
	Replication *ReplicationHealth `json:"replication,omitempty"`
}

// health builds the gate's saturation view from its live counters.
func (g *gate) health() GateHealth {
	inflight := len(g.slots)
	queued := int(g.queued.Load())
	return GateHealth{
		Inflight:      inflight,
		InflightLimit: cap(g.slots),
		Queued:        queued,
		QueueLimit:    int(g.maxQueue),
		Saturated:     inflight >= cap(g.slots) && queued >= int(g.maxQueue),
	}
}

// Health reports the primary-side readiness view. The gate belongs to
// the HTTP layer, so the handler passes its view in.
func (d *Daemon) Health(gate *GateHealth) HealthView {
	d.mu.Lock()
	view := HealthView{
		OK:          d.walErr == nil,
		Role:        "primary",
		Tick:        d.m.NextTick(),
		Ticks:       d.m.Config().Ticks,
		Done:        d.m.Done(),
		Frozen:      d.frozen,
		ResumedTick: d.resumedAt,
		WalOK:       d.walErr == nil,
		WalError:    errText(d.walErr),
	}
	d.mu.Unlock()
	_, _, view.ReplicationSubscribers = d.rep.Stats()
	view.Gate = gate
	return view
}

// Health reports the follower-side readiness view: ok means the spec
// has been learned and the follower is caught up to everything the
// primary has announced.
func (f *Follower) Health() HealthView {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := &ReplicationHealth{
		Primary:            f.opts.Primary,
		Connected:          f.connected,
		Records:            len(f.muts),
		PrimaryRecords:     f.primaryRecords,
		LagRecords:         f.primaryRecords - len(f.muts),
		ResumeTick:         f.resumeTick,
		PrimaryTick:        f.primaryTick,
		LagTicks:           f.primaryTick - f.resumeTick,
		PrimaryFrozen:      f.primaryFrozen,
		PrimaryDone:        f.primaryDone,
		LastContactSeconds: -1,
		Reconnects:         f.reconnects,
	}
	if !f.lastContact.IsZero() {
		rep.LastContactSeconds = time.Since(f.lastContact).Seconds()
	}
	rep.CaughtUp = f.haveSpec && rep.LagRecords <= 0 && rep.LagTicks <= 0
	role := "follower"
	if f.promoted != nil {
		// Promotion succeeded but the serving layer has not swapped to
		// the full handler yet (a microseconds-wide window).
		role = "promoting"
	}
	return HealthView{
		OK:          rep.CaughtUp,
		Role:        role,
		Tick:        f.resumeTick,
		Ticks:       f.spec.Ticks,
		Done:        f.primaryDone,
		WalOK:       true,
		Replication: rep,
	}
}
