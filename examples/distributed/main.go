// Distributed runs a real networked DBDC round inside one process: a TCP
// server plus several concurrently connecting sites on the loopback
// interface — the deployment shape of the paper's Figure 2, with measured
// transmission costs. The same client/server pair is available as separate
// executables (cmd/dbdc-server, cmd/dbdc-site) for multi-machine use.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	dbdc "github.com/dbdc-go/dbdc"
)

func main() {
	// A supermarket chain: every store's scanner data shows the shared
	// customer segments plus one store-specific segment.
	rng := rand.New(rand.NewSource(7))
	stores := map[string][]dbdc.Point{}
	sharedA := blob(rng, 0, 0, 0.4, 600)  // segment every store sees
	sharedB := blob(rng, 10, 2, 0.4, 600) // second shared segment
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("store-%d", i+1)
		pts := append([]dbdc.Point{}, sharedA[i*200:(i+1)*200]...)
		pts = append(pts, sharedB[i*200:(i+1)*200]...)
		// A store-specific segment no other site knows about.
		pts = append(pts, blob(rng, float64(20+10*i), -8, 0.3, 150)...)
		stores[id] = pts
	}

	cfg := dbdc.Config{Local: dbdc.Params{Eps: 0.6, MinPts: 5}}
	srv, err := dbdc.NewServer("127.0.0.1:0", len(stores), cfg, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s, waiting for %d stores\n", srv.Addr(), len(stores))

	serverDone := make(chan error, 1)
	go func() {
		global, err := srv.RunRound()
		if err == nil {
			fmt.Printf("server: merged %d representatives into %d global clusters, received %dB, sent %dB\n",
				len(global.Reps), global.NumClusters, srv.BytesIn(), srv.BytesOut())
		}
		serverDone <- err
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	for id, pts := range stores {
		wg.Add(1)
		go func(id string, pts []dbdc.Point) {
			defer wg.Done()
			report, err := dbdc.RunSite(srv.Addr(), id, pts, cfg, 10*time.Second)
			if err != nil {
				log.Printf("%s: %v", id, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			fmt.Printf("%s: sees %d global clusters, %d of its noise points adopted by other stores' clusters, sent %dB / received %dB\n",
				id, report.Global.NumClusters, report.Stats.NoiseAdopted,
				report.BytesSent, report.BytesReceived)
		}(id, pts)
	}
	wg.Wait()
	if err := <-serverDone; err != nil {
		log.Fatal(err)
	}
	fmt.Println("round complete: every store now answers queries like " +
		`"give me all objects in global cluster 3" locally`)
}

func blob(rng *rand.Rand, cx, cy, spread float64, n int) []dbdc.Point {
	pts := make([]dbdc.Point, n)
	for i := range pts {
		pts[i] = dbdc.Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return pts
}
