// Command chordald is the extraction service: a long-running HTTP
// server that accepts graph uploads or generator Source specs, runs
// chordal.Spec jobs on -jobs fixed-width slots (the -workers total
// split evenly between them) under a weighted-fair multi-tenant
// scheduler, caches generated inputs and completed extractions by
// canonical spec, and streams per-iteration progress as server-sent
// events. A job's workers option can narrow it below its slot's width
// but not widen it; run -jobs 1 for one full-width job at a time.
//
// Usage:
//
//	chordald -addr :8080 -jobs 2 -workers 0
//	chordald -max-queue 256 -tenant-config tenants.json
//
// Tenancy: requests carry a tenant name in the X-Tenant (or X-API-Key)
// header; requests without one belong to the default tenant and behave
// exactly like the single-tenant service. -tenant-config names a JSON
// file mapping tenant name -> {weight, priority, maxQueue,
// maxConcurrent, ratePerSec, burst} (all fields optional); -max-queue
// bounds the global pending queue and -default-weight sets the weight
// of tenants the file does not name. When a queue is full or a rate
// limit is exceeded, submissions shed with 429 Too Many Requests and a
// Retry-After header computed from the observed drain rate.
//
// Endpoints (see internal/service and README.md for the full API):
//
//	POST   /v1/jobs              submit (JSON {source, options} or multipart upload)
//	GET    /v1/jobs/{id}         status + run report
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/events  SSE progress stream
//	GET    /v1/jobs/{id}/result  chordal subgraph (?format=edges|bin|mtx)
//	GET    /v1/scheduler         fair-scheduler stats (per-tenant shares, sheds)
//	GET    /healthz              liveness + occupancy
//
// SIGINT/SIGTERM shut the server down gracefully: listeners close,
// in-flight jobs are canceled at their kernel's next cancellation
// check (an iteration boundary, or every 4096 parents at one worker),
// and their worker goroutines drain before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chordal/internal/sched"
	"chordal/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		jobs        = flag.Int("jobs", 2, "maximum concurrently running jobs")
		workers     = flag.Int("workers", 0, "worker total split evenly over the -jobs slots (0 = all CPUs)")
		inputCache  = flag.Int64("input-cache-bytes", 256<<20, "generated-input LRU byte budget, charged at CSR size (negative disables)")
		resultCache = flag.Int64("result-cache-bytes", 256<<20, "completed-extraction LRU byte budget, charged at CSR size (negative disables)")
		maxUpload   = flag.Int64("max-upload", 256<<20, "maximum multipart upload bytes")
		allowPaths  = flag.Bool("allow-paths", false, "permit server-side file paths as job sources (trusted deployments only)")
		jobTTL      = flag.Duration("job-ttl", 15*time.Minute, "garbage-collect terminal jobs this long after finishing (negative disables)")
		maxQueue    = flag.Int("max-queue", 0, "global pending-job queue bound; full queues shed with 429 (0 = default 4096, negative = unbounded)")
		defWeight   = flag.Int("default-weight", 0, "fair-share weight for tenants not named in -tenant-config (0 = 1)")
		tenantConf  = flag.String("tenant-config", "", "JSON file mapping tenant name to {weight, priority, maxQueue, maxConcurrent, ratePerSec, burst}")
	)
	flag.Parse()

	tenants, err := loadTenantConfig(*tenantConf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chordald:", err)
		os.Exit(2)
	}

	svc := service.New(service.Config{
		MaxConcurrent:    *jobs,
		Workers:          *workers,
		InputCacheBytes:  *inputCache,
		ResultCacheBytes: *resultCache,
		MaxUploadBytes:   *maxUpload,
		AllowPathSources: *allowPaths,
		JobTTL:           *jobTTL,
		Scheduler: sched.Config{
			MaxQueue:      *maxQueue,
			DefaultTenant: sched.TenantConfig{Weight: *defWeight},
			Tenants:       tenants,
		},
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Println("chordald: shutting down")
		// Cancel jobs first: SSE handlers stream until their job
		// reaches a terminal state, so draining jobs is what lets
		// Shutdown's handler wait finish.
		svc.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("chordald: shutdown: %v", err)
		}
	}()

	log.Printf("chordald: serving on %s (max %d concurrent jobs)", *addr, *jobs)
	err = httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		svc.Close()
		fmt.Fprintln(os.Stderr, "chordald:", err)
		os.Exit(1)
	}
	// ErrServerClosed means the signal goroutine is mid-shutdown: wait
	// for it to finish draining jobs and in-flight responses.
	<-shutdownDone
}

// loadTenantConfig reads the -tenant-config JSON file: an object
// mapping tenant name to its sched.TenantConfig. An empty path means
// no per-tenant overrides.
func loadTenantConfig(path string) (map[string]sched.TenantConfig, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant config: %w", err)
	}
	var tenants map[string]sched.TenantConfig
	if err := json.Unmarshal(data, &tenants); err != nil {
		return nil, fmt.Errorf("tenant config %s: %w", path, err)
	}
	return tenants, nil
}
