package pipeline

import (
	"errors"
	"strings"
	"testing"

	"pardis/examples/pipeline/poomagen"
	"pardis/examples/pipeline/pstlgen"
	"pardis/internal/apps"
	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/pooma"
	"pardis/internal/pstl"
	"pardis/internal/rts"
)

// TestWallClockMatchesSerial runs every client variant Figure 5 measures on
// the wall clock, at the paper's sizes, and checks what each visualizer was
// shown: the frame counts, and last frames equal, bit for bit, to the
// one-thread run of the same kernels. Thread counts that do not divide the
// grid's rows are refused with an error, by the client before its first
// step and by the gradient server on each request.
func TestWallClockMatchesSerial(t *testing.T) {
	serialDiff, serialGrad := Serial()
	if serialDiff.LastMean == 0 || serialGrad.LastMean == 0 {
		t.Fatalf("serial run computed nothing: %+v, %+v", serialDiff, serialGrad)
	}
	for _, c := range []struct {
		name               string
		p                  Params
		procs, clientProcs int
		vizDiff, vizGrad   Visualizer
		err                bool
	}{
		{"whole", Params{}, 2, 2, serialDiff, serialGrad, false},
		{"whole-4-threads", Params{}, 4, 4, serialDiff, serialGrad, false},
		{"skip-gradient", Params{SkipGradient: true}, 2, 2, serialDiff, Visualizer{}, false},
		// The driver sends the initial field, unstepped: its gradient is
		// 1000/2 at the four neighbours of the hot cell.
		{"driver", Params{Driver: true}, 2, 1, Visualizer{}, Visualizer{steps / every, 4 * 500.0 / (grid * grid)}, false},
		{"client-splits-rows", Params{}, 2, 3, Visualizer{}, Visualizer{}, true},
		{"server-splits-rows", Params{}, 3, 2, serialDiff, Visualizer{}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vizDiff, vizGrad, err := Deploy(apps.NewInproc(), Topology{
				Gradient:  apps.Program{Host: "HOST_2", Threads: c.procs},
				Diffusion: apps.Program{Host: "HOST_1", Threads: c.clientProcs},
				VizGrad:   "HOST_2",
			}, c.p, nil)
			if c.err != (err != nil) || err != nil && !strings.Contains(err.Error(), "whole rows") {
				t.Errorf("Run: %v; want an error %v, about whole rows", err, c.err)
			}
			if *vizDiff != c.vizDiff || *vizGrad != c.vizGrad {
				t.Errorf("visualizers shown %+v and %+v; want %+v and %+v", *vizDiff, *vizGrad, c.vizDiff, c.vizGrad)
			}
		})
	}
}

// TestMappedClientsMatchSerial runs the serial kernels in a 2-thread client
// bound through pipeline.idl's other two mappings: it shows each stepped
// POOMA field through poomagen's stubs and every 5th step's PSTL gradient
// through pstlgen's. The Visualizer servant, registered with vizgen's
// table, must be shown what the serial run computes.
func TestMappedClientsMatchSerial(t *testing.T) {
	d := apps.NewInproc()
	vizDiff, vizGrad := &Visualizer{}, &Visualizer{}
	diffView := d.Start(VizDiffProgram, apps.Program{Host: "HOST", Threads: 1}, visualizer(VizDiffProgram, Params{}, vizDiff))
	gradView := d.Start(VizGradProgram, apps.Program{Host: "HOST", Threads: 1}, visualizer(VizGradProgram, Params{}, vizGrad))
	d.Start("client", apps.Program{Host: "HOST", Threads: 2}, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
		vizDiffRef, err := diffView(th)
		if err != nil {
			return err
		}
		vizGradRef, err := gradView(th)
		if err != nil {
			return err
		}
		showField, err := poomagen.SPMDBindVisualizer(orb, vizDiffRef[0])
		if err != nil {
			return err
		}
		showGrad, err := pstlgen.SPMDBindVisualizer(orb, vizGradRef[0])
		if err != nil {
			return err
		}
		f, next := pooma.NewField(th, grid, grid), pooma.NewField(th, grid, grid)
		grad := pstl.NewDistVector(th, grid*grid)
		f.Fill(initial)
		var pending []future.Done
		for i := 1; i <= steps; i++ {
			f.Step(next, alpha)
			f, next = next, f
			done, err := showField.ShowNB(f)
			if err != nil {
				return err
			}
			pending = append(pending, done)
			if i%every == 0 {
				pstl.Gradient2D(pstl.VectorFromDSeq(f.AsDSeq()), grad, grid, grid)
				if done, err = showGrad.ShowNB(grad); err != nil {
					return err
				}
				pending = append(pending, done)
			}
		}
		for _, done := range pending {
			if err := done.Wait(); err != nil {
				return err
			}
		}
		if th.Rank() != 0 {
			return nil
		}
		return errors.Join(showField.Binding().Shutdown("done"), showGrad.Binding().Shutdown("done"))
	})
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if wantDiff, wantGrad := Serial(); *vizDiff != wantDiff || *vizGrad != wantGrad {
		t.Errorf("visualizers shown %+v and %+v; want %+v and %+v", *vizDiff, *vizGrad, wantDiff, wantGrad)
	}
}
