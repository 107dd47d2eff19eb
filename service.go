package tapejoin

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obsserver"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/workload"
)

// ServiceOptions configures the resident join daemon started by
// System.StartService.
type ServiceOptions struct {
	// Addr is the HTTP bind address (default "127.0.0.1:0"; read the
	// bound address from Service.Addr).
	Addr string
	// Policy selects the online scheduler (default mount-aware).
	Policy BatchPolicy
	// CacheMB, MountSeconds and MaxShared tune the engine exactly as in
	// BatchOptions.
	CacheMB      float64
	MountSeconds float64
	MaxShared    int
	// MergeWindow holds a shared-scan seed query back for up to this
	// wall-clock duration so later same-S arrivals merge into its tape
	// pass. Only meaningful under BatchSharedScan.
	MergeWindow time.Duration
	// TenantQuota caps each tenant's outstanding queries (0 =
	// unlimited).
	TenantQuota int
	// Catalog names the relations queries may reference.
	Catalog map[string]*Relation
}

// Service is a running resident join daemon: an HTTP/JSON front end
// (POST /join, GET /relations, GET /stats, plus the live-telemetry
// routes when the system has an obs server) over an online scheduler
// that shares the system's two drives, disk array and memory across
// continuously-arriving queries. Stop it with Drain.
type Service struct {
	srv  *service.Server
	addr string
}

// StartService starts the resident daemon on the system's device
// complex. Unlike Join and RunBatch — which build a fresh device
// complex per call — the service keeps one session resident: head
// positions, staged partitions and mounted cartridges persist across
// queries, and compatible same-S queries merge onto shared tape
// passes. The system's obs server (ObsAddr/ObsServer), when present,
// is pointed at the service's registry and mounted on the service mux,
// so one scrape endpoint covers the daemon.
func (s *System) StartService(opts ServiceOptions) (*Service, error) {
	if len(opts.Catalog) == 0 {
		return nil, errors.New("tapejoin: StartService needs a non-empty catalog")
	}
	if opts.Policy == "" {
		opts.Policy = BatchMountAware
	}
	policy, err := workload.ParsePolicy(string(opts.Policy))
	if err != nil {
		return nil, err
	}
	// A resident service keeps only bounded telemetry: the metrics
	// registry and the flight-recorder ring. The unbounded tracker
	// stays per-run (Join/RunBatch) where it has an end.
	runRes, err := s.runResources(nil, obs.NewRegistry())
	if err != nil {
		return nil, err
	}

	cat := make(map[string]*relation.Relation, len(opts.Catalog))
	for name, r := range opts.Catalog {
		if r == nil {
			return nil, fmt.Errorf("tapejoin: catalog relation %q is nil", name)
		}
		cat[name] = r.rel
	}
	// The daemon always serves the live-telemetry routes on its own
	// mux: reuse the system's obs server when it has one (its separate
	// listener keeps working too), otherwise embed an unstarted one.
	obsSrv := s.obs
	if obsSrv == nil {
		obsSrv = obsserver.New()
	}
	srv, err := service.New(service.Config{
		Engine: workload.OnlineConfig{
			Config: workload.Config{
				Resources:   runRes,
				Policy:      policy,
				CacheBlocks: MBf(opts.CacheMB),
				MountTime:   time.Duration(opts.MountSeconds * float64(time.Second)),
				MaxShared:   opts.MaxShared,
			},
			MergeWindow: opts.MergeWindow,
		},
		Catalog:     cat,
		TenantQuota: opts.TenantQuota,
		Obs:         obsSrv,
		Health:      s.healthSource(),
	})
	if err != nil {
		return nil, err
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	bound, err := srv.Start(addr)
	if err != nil {
		srv.Drain()
		return nil, err
	}
	return &Service{srv: srv, addr: bound}, nil
}

// Addr returns the daemon's bound address.
func (sv *Service) Addr() string { return sv.addr }

// URL returns the daemon's base URL.
func (sv *Service) URL() string { return "http://" + sv.addr }

// Drain shuts the daemon down gracefully: new queries get 503
// immediately, admitted queries are served to completion, in-flight
// responses finish streaming, then the listener closes. Safe to call
// more than once.
func (sv *Service) Drain() error { return sv.srv.Drain() }

// Close is Drain.
func (sv *Service) Close() error { return sv.srv.Drain() }

// Stats snapshots the daemon: admission counters, per-tenant
// outstanding queries, and the online engine's scheduler counters.
func (sv *Service) Stats() service.StatsBody { return sv.srv.Stats() }
