package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"pardis/internal/dist"
)

// IOR is PARDIS' interoperable object reference: everything a client needs
// to reach an object. Unlike CORBA's single-profile IORs, a PARDIS IOR for
// an SPMD object carries one endpoint address per computing thread of the
// server, which is what lets the ORB deliver requests and distributed
// argument segments to all of them directly.
type IOR struct {
	Interface  string   `json:"iface"`
	Key        string   `json:"key"`
	SPMD       bool     `json:"spmd"`
	ServerSize int      `json:"ssize"` // computing threads of the server program
	Addrs      []string `json:"addrs"` // SPMD: per-thread endpoints; single: the owner's endpoint
	Host       string   `json:"host"`  // server host, for locality and activation decisions

	// InDists records server-side distribution overrides set prior to
	// registration, so clients compute identical transfer schedules.
	InDists []DistOverride `json:"indists,omitempty"`
}

// DistOverride is one server-side distribution override in an IOR.
type DistOverride struct {
	Op    string        `json:"op"`
	Param int           `json:"param"`
	Tmpl  dist.Template `json:"tmpl"`
}

const iorPrefix = "PARDIS-IOR:1:"

// String stringifies the reference (the object_to_string analog).
func (i IOR) String() string {
	b, err := json.Marshal(i)
	if err != nil {
		panic(fmt.Sprintf("core: unmarshalable IOR: %v", err)) // fields are plain data
	}
	return iorPrefix + string(b)
}

// ParseIOR parses a stringified reference.
func ParseIOR(s string) (IOR, error) {
	rest, ok := strings.CutPrefix(s, iorPrefix)
	if !ok {
		return IOR{}, fmt.Errorf("core: not a PARDIS IOR: %.40q", s)
	}
	var i IOR
	if err := json.Unmarshal([]byte(rest), &i); err != nil {
		return IOR{}, fmt.Errorf("core: corrupt IOR: %w", err)
	}
	if err := i.check(); err != nil {
		return IOR{}, err
	}
	return i, nil
}

func (i IOR) check() error {
	if i.Key == "" {
		return fmt.Errorf("core: IOR without object key")
	}
	if len(i.Addrs) == 0 {
		return fmt.Errorf("core: IOR %s has no endpoint addresses", i.Key)
	}
	// Per-thread tables and transfer schedules on the client are sized by
	// ServerSize; every reference the runtime mints has one address per
	// thread (SPMD) or one thread (single, replicated).
	if i.ServerSize < 1 || i.ServerSize > len(i.Addrs) {
		return fmt.Errorf("core: IOR %s names %d server threads with %d endpoint addresses", i.Key, i.ServerSize, len(i.Addrs))
	}
	if i.SPMD && len(i.Addrs) != i.ServerSize {
		return fmt.Errorf("core: SPMD IOR %s has %d addresses for %d threads", i.Key, len(i.Addrs), i.ServerSize)
	}
	return nil
}

// ApplyOverrides copies the IOR's server-side distribution overrides onto a
// (cloned) interface definition so the client's transfer schedules match the
// server's.
func (i IOR) ApplyOverrides(def *InterfaceDef) error {
	for _, o := range i.InDists {
		if err := def.SetServerDist(o.Op, o.Param, o.Tmpl); err != nil {
			return err
		}
	}
	return nil
}
