// Command dbdc-query asks a site for all of its objects belonging to a
// global cluster — the query Section 7 of the paper motivates the
// relabeling step with ("give me all objects on your site which belong to
// the global cluster 4711"). Pair it with `dbdc-site -serve-queries`.
//
// Usage:
//
//	dbdc-query -addr site-host:7071 -cluster 3 [-o members.csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func main() {
	addr := flag.String("addr", "", "site query address (required)")
	id := flag.Int("cluster", -1, "global cluster id (required, non-negative)")
	out := flag.String("o", "", "output CSV (default stdout)")
	timeout := flag.Duration("timeout", 10*time.Second, "I/O timeout")
	flag.Parse()
	if *addr == "" || *id < 0 {
		flag.Usage()
		os.Exit(2)
	}
	members, err := transport.QueryCluster(*addr, cluster.ID(*id), *timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbdc-query: %v\n", err)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-query: %v\n", err)
			os.Exit(1)
		}
		w = f
	}
	err = data.WriteCSV(w, members)
	if w != os.Stdout {
		// A write the file system defers can fail only here.
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbdc-query: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dbdc-query: %d objects of global cluster %d on %s\n",
		len(members), *id, *addr)
}
