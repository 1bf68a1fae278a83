// Service walks the extraction service's HTTP API end to end: submit a
// job, follow its server-sent-event progress stream, read the run
// report, download the resulting chordal subgraph, and demonstrate
// that resubmitting the same spec is a cache hit.
//
// By default it starts an in-process server on a loopback port so the
// example is self-contained; point it at a running chordald with -addr.
//
// Run with:
//
//	go run ./examples/service
//	go run ./examples/service -addr localhost:8080 -source rmat-g:16:42
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"chordal/internal/service"
)

func main() {
	addr := flag.String("addr", "", "address of a running chordald (empty = start one in-process)")
	source := flag.String("source", "rmat-g:14:42", "input Source spec to submit")
	flag.Parse()

	base := "http://" + *addr
	if *addr == "" {
		// Self-contained mode: serve the extraction service from this
		// process on a loopback port.
		svc := service.New(service.Config{})
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, svc)
		base = "http://" + ln.Addr().String()
		fmt.Printf("started in-process server on %s\n\n", ln.Addr())
	}

	// 1. Submit a job: POST /v1/jobs with a Source spec and options.
	status, _ := submit(base, *source)
	fmt.Printf("submitted job %s (state %s, source %s)\n\n", status.ID, status.State, status.Source)

	// 2. Follow the SSE progress stream until the terminal done event.
	fmt.Println("event stream:")
	status = follow(base, status.ID)

	// 3. Status + run report.
	if status.State != service.StateDone {
		log.Fatalf("job ended %s: %s", status.State, status.Error)
	}
	rep := status.Report
	fmt.Printf("\njob done: %d vertices, %d input edges -> %d chordal edges (%.1f%%) in %d iterations\n",
		rep.Input.Vertices, rep.Input.Edges, rep.Extraction.ChordalEdges, rep.Extraction.EdgesKeptPct, rep.Extraction.Iterations)
	fmt.Printf("canonical key: %s\n", rep.Canonical)
	if rep.Verify != nil {
		fmt.Printf("verified chordal: %v\n", rep.Verify.Chordal)
	}

	// 4. Fetch the subgraph as a text edge list.
	resp, err := http.Get(base + "/v1/jobs/" + status.ID + "/result?format=edges")
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	fmt.Println("\nresult (first lines):")
	for i := 0; i < 4 && sc.Scan(); i++ {
		fmt.Printf("  %s\n", sc.Text())
	}
	resp.Body.Close()

	// 5. Resubmit the same spec, spelled differently: a cache hit (HTTP
	// 200) returns the job that produced the result, with no
	// re-extraction.
	again, code := submit(base, " "+strings.ToUpper(*source)+" ")
	fmt.Printf("\nresubmitted as %q: HTTP %d, job %s, state %s (cache hit: %t)\n",
		strings.ToUpper(*source), code, again.ID, again.State, code == http.StatusOK)
}

// submit posts a JSON job request and decodes the returned status and
// its HTTP status code.
func submit(base, source string) (service.JobStatus, int) {
	body, _ := json.Marshal(service.JobRequest{Source: source})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	if st.Error != "" && st.ID == "" {
		log.Fatalf("submission rejected: %s", st.Error)
	}
	return st, resp.StatusCode
}

// follow prints the job's SSE stream until the done event, returning
// the terminal status it carries.
func follow(base, id string) service.JobStatus {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "done" {
				var st service.JobStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %-10s state=%s\n", event, st.State)
				return st
			}
			fmt.Printf("  %-10s %s\n", event, data)
		}
	}
	log.Fatalf("event stream ended without done (err=%v)", sc.Err())
	return service.JobStatus{}
}
