package apps_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/apps"
	"pardis/internal/core"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// launchers are the fabrics a deployment runs on; hosts are testbed hosts,
// which the in-process launcher takes as names.
var launchers = []struct {
	name string
	new  func() apps.Launcher
}{
	{"inproc", func() apps.Launcher { return apps.NewInproc() }},
	{"sim", func() apps.Launcher { return apps.NewSim() }},
}

// wait returns what l.Wait returns, or fails the test if it has not
// returned within ten seconds.
func wait(t *testing.T, l apps.Launcher) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Wait has not returned after 10 s")
		return nil
	}
}

// TestLaunchersAgree runs one two-program deployment on every launcher: a
// 2-thread server whose every rank publishes and returns an error, and a
// 3-thread client whose every rank reads the server's reference and
// returns an error. Each thread's endpoint must be named name-rank, every
// client thread must read what the server's rank 0 published, and Wait
// must return the errors of both programs.
func TestLaunchersAgree(t *testing.T) {
	errServer, errClient := errors.New("server body"), errors.New("client body")
	want := core.IOR{Interface: "IDL:test:1.0", Key: "server-key", ServerSize: 2, Addrs: []string{"a0", "a1"}}
	for _, c := range launchers {
		t.Run(c.name, func(t *testing.T) {
			l := c.new()
			var mu sync.Mutex
			addrs := map[string]string{}
			record := func(name string, th rts.Thread, adapter *poa.POA) {
				mu.Lock()
				defer mu.Unlock()
				addrs[fmt.Sprintf("%s-%d", name, th.Rank())] = string(adapter.Router().Addr())
			}
			server := l.Start("server", apps.Program{Host: "onyx", Threads: 2}, func(th rts.Thread, adapter *poa.POA, _ *core.ORB, publish func(...core.IOR)) error {
				record("server", th, adapter)
				ior := want
				ior.Key = fmt.Sprintf("rank-%d", th.Rank()) // what only rank 0 may publish
				if th.Rank() == 0 {
					ior = want
				}
				publish(ior)
				return errServer
			})
			read := make([][]core.IOR, 3)
			l.Start("client", apps.Program{Host: "powerchallenge", Threads: 3}, func(th rts.Thread, adapter *poa.POA, _ *core.ORB, _ func(...core.IOR)) error {
				record("client", th, adapter)
				refs, err := server(th)
				read[th.Rank()] = refs
				return errors.Join(err, errClient)
			})
			err := wait(t, l)

			if len(addrs) != 5 {
				t.Errorf("endpoints %v; want server-0, server-1 and client-0 to client-2", addrs)
			}
			for name, addr := range addrs {
				if !strings.Contains(addr, "/"+name+"/") {
					t.Errorf("endpoint %s has address %s, not named %s", name, addr, name)
				}
			}
			for rank, refs := range read {
				if !reflect.DeepEqual(refs, []core.IOR{want}) {
					t.Errorf("client-%d read %+v; want rank 0's %+v", rank, refs, want)
				}
			}
			if !errors.Is(err, errServer) || !errors.Is(err, errClient) {
				t.Errorf("Wait: %v; want both programs' errors", err)
			}
		})
	}
}

// TestRefFailsWhenNothingIsPublished starts a 1-thread program that returns
// without publishing, as a server whose registration fails does, and reads
// its reference from another program. The read must fail with the
// program's error, or say that nothing was published, instead of waiting
// forever; and Wait must return the program's error.
func TestRefFailsWhenNothingIsPublished(t *testing.T) {
	errRegister := errors.New("register failed")
	for _, c := range launchers {
		for _, bodyErr := range []error{errRegister, nil} {
			t.Run(fmt.Sprintf("%s/%v", c.name, bodyErr), func(t *testing.T) {
				l := c.new()
				server := l.Start("server", apps.Program{Host: "onyx", Threads: 1}, func(rts.Thread, *poa.POA, *core.ORB, func(...core.IOR)) error {
					return bodyErr
				})
				var refs []core.IOR
				var readErr error
				l.Start("client", apps.Program{Host: "powerchallenge", Threads: 1}, func(th rts.Thread, _ *poa.POA, _ *core.ORB, _ func(...core.IOR)) error {
					refs, readErr = server(th)
					return nil
				})
				err := wait(t, l)
				if refs != nil || readErr == nil || bodyErr != nil && !errors.Is(readErr, bodyErr) {
					t.Errorf("read %v, %v; want no reference and the error %v", refs, readErr, bodyErr)
				}
				if !errors.Is(err, bodyErr) {
					t.Errorf("Wait: %v; want %v", err, bodyErr)
				}
			})
		}
	}
}
