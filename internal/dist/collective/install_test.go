package collective

// Tests for the framework wiring: InstallRemoteDistArray must expose the
// attachment as an ordinary provides port and surface supervision state
// through the same connection-health events scalar remote ports use — and
// both installers must keep doing so when the caller observes supervision
// state itself.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/cca"
	ccoll "repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/dist"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/transport"
)

// vizComponent is a minimal consumer with one uses port of the pull type.
type vizComponent struct{ svc cca.Services }

func (v *vizComponent) SetServices(svc cca.Services) error {
	v.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "in", Type: ccoll.PullPortType})
}

func (v *vizComponent) RequiredFlavor() cca.Flavor { return cca.FlavorDistributed }

func TestInstallRemoteDistArray(t *testing.T) {
	const gl = 120
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 2
	}
	src := array.NewBlockMap(gl, 2)
	inner := &transport.InProc{}
	srv, pub := serve(t, inner, "coll-install", "wave", cohort(src, global))
	defer srv.Stop()
	defer pub.Close()

	faulty := transport.NewFaulty(inner, transport.Faults{})
	fw := framework.New(framework.Options{Flavor: cca.FlavorInProcess | cca.FlavorDistributed})
	events := make(chan cca.EventKind, 64)
	fw.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		select {
		case events <- e.Kind:
		default:
		}
	}))

	dst := array.NewCyclicMap(gl, 2, 4)
	imp, err := InstallRemoteDistArray(fw, "viz-proxy", faulty, "coll-install", "wave", dst, Options{ChunkBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()

	// The attachment must be reachable only through the configuration API:
	// a using component connects to the proxy's provides port and pulls
	// through the ccoll.PullPort interface, unaware of the process boundary.
	viz := &vizComponent{}
	if err := fw.Install("viz", viz); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Connect("viz", "in", "viz-proxy", "data"); err != nil {
		t.Fatal(err)
	}
	port, err := viz.svc.GetPort("in")
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := port.(ccoll.PullPort)
	if !ok {
		t.Fatalf("port is %T, want ccoll.PullPort", port)
	}
	if pp.GlobalLen() != gl || pp.Ranks() != 2 {
		t.Fatalf("port geometry %d/%d", pp.GlobalLen(), pp.Ranks())
	}
	out := make([]float64, pp.LocalLen(1))
	if err := pp.Pull(1, out); err != nil {
		t.Fatal(err)
	}
	if want := wantLocal(dst, global, 1); !floatsEqual(out, want) {
		t.Fatal("framework-mediated pull returned wrong data")
	}

	// A severed link must surface as the standard event pair.
	faulty.SeverAll()
	waitEvent(t, events, cca.EventConnectionDegraded)
	waitEvent(t, events, cca.EventConnectionRestored)
	if err := pp.Pull(1, out); err != nil {
		t.Fatalf("pull after heal: %v", err)
	}
}

func waitEvent(t *testing.T, events <-chan cca.EventKind, want cca.EventKind) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case k := <-events:
			if k == want {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v", want)
		}
	}
}

// TestHealthBridgeKeepsCallerOnState covers both remote-port installers: a
// caller that sets its own OnState must still get framework health events
// on the proxy's port, and its callback must still run.
func TestHealthBridgeKeepsCallerOnState(t *testing.T) {
	for _, tc := range []struct {
		name, port string
		// serve starts the remote side on tr at addr; it returns the stop.
		serve func(t *testing.T, tr transport.Transport, addr string) func()
		// install attaches proxy "proxy" and returns a call through it.
		install func(fw *framework.Framework, tr transport.Transport, addr string, sup orb.SupervisorOptions) (call func() error, close func(), err error)
	}{
		{
			name: "scalar", port: "A",
			serve: func(t *testing.T, tr transport.Transport, addr string) func() {
				server := framework.New(framework.Options{})
				if err := server.Install("op", esi.NewOperatorComponent(linalg.Laplace1D(4))); err != nil {
					t.Fatal(err)
				}
				l, err := tr.Listen(addr)
				if err != nil {
					t.Fatal(err)
				}
				exp := dist.NewExporter(server, l)
				if _, err := exp.Export("op", "A"); err != nil {
					t.Fatal(err)
				}
				return exp.Close
			},
			install: func(fw *framework.Framework, tr transport.Transport, addr string, sup orb.SupervisorOptions) (func() error, func(), error) {
				rp, err := dist.InstallSupervisedRemoteOperator(fw, "proxy", tr, addr, "op/A", esi.TypeOperator, sup)
				if err != nil {
					return nil, nil, err
				}
				call := func() error { _, err := rp.Call("rows"); return err }
				return call, func() { _ = rp.Close() }, nil
			},
		},
		{
			name: "collective", port: "data",
			serve: func(t *testing.T, tr transport.Transport, addr string) func() {
				srv, pub := serve(t, tr, addr, "wave", cohort(array.NewBlockMap(16, 1), make([]float64, 16)))
				return func() { pub.Close(); srv.Stop() }
			},
			install: func(fw *framework.Framework, tr transport.Transport, addr string, sup orb.SupervisorOptions) (func() error, func(), error) {
				imp, err := InstallRemoteDistArray(fw, "proxy", tr, addr, "wave", array.NewSerialMap(16), Options{Supervisor: sup})
				if err != nil {
					return nil, nil, err
				}
				call := func() error { return imp.Pull(0, make([]float64, 16)) }
				return call, func() { _ = imp.Close() }, nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &transport.InProc{}
			addr := "bridge-" + tc.name
			stop := sync.OnceFunc(tc.serve(t, tr, addr))
			defer stop()

			fw := framework.New(framework.Options{Flavor: cca.FlavorInProcess | cca.FlavorDistributed})
			// Both observers send without blocking into room for far more
			// transitions than one outage makes; the supervisor never waits
			// on the test.
			events := make(chan cca.EventKind, 64)
			fw.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
				if e.Component != "proxy" {
					return
				}
				select {
				case events <- e.Kind:
				default:
				}
			}))
			states := make(chan orb.ConnState, 64)
			sup := orb.SupervisorOptions{
				RetryBase:        time.Millisecond,
				RetryCap:         5 * time.Millisecond,
				BreakerThreshold: 2,
				BreakerCooldown:  time.Minute,
				OnState: func(s orb.ConnState, _ error) {
					select {
					case states <- s:
					default:
					}
				},
			}
			call, closeProxy, err := tc.install(fw, tr, addr, sup)
			if err != nil {
				t.Fatal(err)
			}
			defer closeProxy()
			if err := call(); err != nil {
				t.Fatal(err)
			}

			stop()
			deadline := time.After(5 * time.Second)
			var sawEvent, sawState bool
			for !sawEvent || !sawState {
				select {
				case k := <-events:
					sawEvent = sawEvent || k == cca.EventConnectionDegraded || k == cca.EventConnectionBroken
				case s := <-states:
					sawState = sawState || s == orb.StateDegraded || s == orb.StateBroken
				case <-time.After(10 * time.Millisecond):
					call() //nolint:errcheck // drives the supervisor onto the dead link
				case <-deadline:
					t.Fatalf("after stop: framework health event %v, caller OnState %v", sawEvent, sawState)
				}
			}
			if h, err := fw.PortHealth("proxy", tc.port); err != nil || h == cca.HealthHealthy {
				t.Errorf("proxy port health = %v, %v; want degraded or broken", h, err)
			}
		})
	}
}
