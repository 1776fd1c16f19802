// Command pardis-demo exercises the full PARDIS stack over real TCP
// sockets: a repository, an SPMD server whose threads each listen on their
// own TCP endpoint, and an SPMD client that resolves the server by name and
// invokes it with distributed arguments.
//
// Run as three processes (the realistic deployment):
//
//	pardis-demo -role registry -listen 127.0.0.1:7934
//	pardis-demo -role server   -registry tcp://127.0.0.1:7934
//	pardis-demo -role client   -registry tcp://127.0.0.1:7934
//
// or with every computing thread of the server in its own OS process
// (the TCP run-time system — genuinely distinct address spaces):
//
//	pardis-demo -role server-rank -rank 0 -size 3 -coord 127.0.0.1:7944 -registry tcp://127.0.0.1:7934
//	pardis-demo -role server-rank -rank 1 -size 3 -coord 127.0.0.1:7944 -registry tcp://127.0.0.1:7934
//	pardis-demo -role server-rank -rank 2 -size 3 -coord 127.0.0.1:7944 -registry tcp://127.0.0.1:7934
//
// or as a single process smoke test:
//
//	pardis-demo -role all
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/registry/regidl"
	"pardis/internal/rts"
)

const (
	serverName    = "tcp-scaler"
	serverThreads = 3
	clientThreads = 2
	vectorLen     = 10_000
)

// scalerImpl serves scaler.idl's interface (zz_generated.go).
type scalerImpl struct{}

func (scalerImpl) Scale(ctx *poa.Context, k float64, x *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	y := dseq.NewFromLayout[float64](ctx.Thread, x.DLayout(), dseq.Float64Codec{})
	for i, v := range x.Local() {
		y.Local()[i] = k * v
	}
	return y, nil
}

func main() {
	role := flag.String("role", "all", "registry | server | server-rank | client | all")
	listen := flag.String("listen", "127.0.0.1:7934", "registry listen address (registry role)")
	regAddr := flag.String("registry", "tcp://127.0.0.1:7934", "registry bootstrap address")
	rank := flag.Int("rank", 0, "this process's rank (server-rank role)")
	size := flag.Int("size", serverThreads, "computing threads of the program (server-rank role)")
	coord := flag.String("coord", "127.0.0.1:7944", "RTS rendezvous address (server-rank role)")
	flag.Parse()

	switch *role {
	case "registry":
		runRegistry(*listen)
	case "server":
		runServer(*regAddr)
	case "server-rank":
		runServerRank(*regAddr, *rank, *size, *coord)
	case "client":
		runClient(*regAddr)
	case "all":
		// Single-process smoke test: private registry on a random port.
		addr := serveRegistryOn(listenTCP(""))
		go runServer(addr)
		time.Sleep(300 * time.Millisecond) // let the server register
		runClient(addr)
	default:
		log.Fatalf("unknown role %q", *role)
	}
}

func serveRegistryOn(ep nexus.Endpoint) string {
	router := core.NewRouter(ep)
	go func() {
		th := rts.NewChanGroup("registry-host", 1).Thread(0)
		adapter := poa.New(th, router, nil)
		if _, err := regidl.RegisterRepositorySingle(adapter, registry.RepositoryKey, registry.NewRepository()); err != nil {
			log.Fatal(err)
		}
		adapter.ImplIsReady()
	}()
	return string(router.Addr())
}

func runRegistry(listen string) {
	addr := serveRegistryOn(listenTCP(listen))
	fmt.Println("registry serving at", addr)
	select {}
}

func runServer(regAddr string) {
	rts.NewChanGroup("server-host", serverThreads).Run(func(th rts.Thread) {
		adapter := poa.New(th, core.NewRouter(listenTCP("")), nil)
		ior, err := RegisterScalerSPMD(adapter, "scaler-tcp-1", scalerImpl{})
		if err != nil {
			log.Fatal(err)
		}
		if th.Rank() == 0 {
			publish(regAddr, ior)
			fmt.Printf("server: %d threads on TCP, registered as %q\n", th.Size(), serverName)
		}
		th.Barrier()
		adapter.ImplIsReady()
	})
	fmt.Println("server: deactivated")
}

// runServerRank is one computing thread of the SPMD server as its own OS
// process: the RTS is the TCP backend (JoinTCP), and the ORB gets its own
// TCP endpoint.
func runServerRank(regAddr string, rank, size int, coord string) {
	th, err := rts.JoinTCP("server-host", rank, size, coord, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer th.Close()
	fmt.Printf("rank %d/%d joined the parallel program\n", rank, size)
	adapter := poa.New(th, core.NewRouter(listenTCP("")), nil)
	ior, err := RegisterScalerSPMD(adapter, "scaler-tcp-1", scalerImpl{})
	if err != nil {
		log.Fatal(err)
	}
	if rank == 0 {
		publish(regAddr, ior)
		fmt.Printf("rank 0 registered %q with the repository\n", serverName)
	}
	th.Barrier()
	adapter.ImplIsReady()
	fmt.Printf("rank %d deactivated\n", rank)
}

// listenTCP opens a TCP endpoint on addr ("" picks a free port), or exits.
func listenTCP(addr string) nexus.Endpoint {
	ep, err := nexus.NewTCPEndpoint(addr)
	if err != nil {
		log.Fatal(err)
	}
	return ep
}

// publish registers the server under serverName, through a client ORB and
// TCP endpoint of its own.
func publish(regAddr string, ior core.IOR) {
	repo, err := registry.Open(core.NewORB(core.NewRouter(listenTCP("")), nil, nil), regAddr)
	if err != nil {
		log.Fatal(err)
	}
	if err := repo.Register(serverName, ior); err != nil {
		log.Fatal(err)
	}
}

func runClient(regAddr string) {
	start := time.Now()
	rts.NewChanGroup("client-host", clientThreads).Run(func(th rts.Thread) {
		orb := core.NewORB(core.NewRouter(listenTCP("")), th, nil)
		repo, err := registry.Open(orb, regAddr)
		if err != nil {
			log.Fatal(err)
		}
		var ior core.IOR
		for attempt := 0; ; attempt++ {
			ior, err = repo.Lookup(serverName)
			if err == nil {
				break
			}
			if attempt > 50 {
				log.Fatalf("server never registered: %v", err)
			}
			time.Sleep(100 * time.Millisecond)
		}
		s, err := SPMDBindScaler(orb, ior)
		if err != nil {
			log.Fatal(err)
		}
		x := dseq.New[float64](th, vectorLen, dist.BlockTemplate(), dseq.Float64Codec{})
		for i := range x.Local() {
			x.Local()[i] = float64(x.DLayout().GlobalIndex(th.Rank(), i))
		}
		y, err := s.Scale(2.0, x)
		if err != nil {
			log.Fatal(err)
		}
		for i, v := range y.Local() {
			g := y.DLayout().GlobalIndex(th.Rank(), i)
			if v != 2*float64(g) {
				log.Fatalf("y[%d] = %v", g, v)
			}
		}
		th.Barrier()
		if th.Rank() == 0 {
			fmt.Printf("client: scaled %d doubles over TCP in %v — all values verified\n",
				vectorLen, time.Since(start).Round(time.Millisecond))
			s.Binding().Shutdown("demo done")
		}
	})
}
