package main

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"preserv/internal/experiment"
	"preserv/internal/preserv"
	"preserv/internal/registry"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// env is one workload's running system: stores, the PReServ endpoint
// serving them over loopback SOAP, and a registry holding the published
// service descriptions. Everything runs with the program's default
// configuration; a traced env only interposes the timing wrappers.
type env struct {
	cfg *config
	dir string
	// raw holds the unwrapped backends, for measuring stored bytes.
	raw    []store.Backend
	stores []*store.Store
	router *shard.Router
	svc    *preserv.Service
	srv    *preserv.Server
	reg    *registry.Server
	bst    *backendStats
	sst    *shardStats
}

func newEnv(cfg *config, dir string) *env {
	return &env{cfg: cfg, dir: dir, bst: &backendStats{}, sst: &shardStats{}}
}

// openStores opens n stores of one backend flavour ("kvdb" or "file").
func (e *env) openStores(flavour string, n int) error {
	for i := 0; i < n; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("store-%d", i))
		var b store.Backend
		var err error
		switch flavour {
		case "kvdb":
			b, err = store.NewKVBackend(dir)
		case "file":
			b, err = store.NewFileBackend(dir)
		default:
			err = fmt.Errorf("unknown backend %q", flavour)
		}
		if err != nil {
			return err
		}
		e.raw = append(e.raw, b)
		if e.cfg.trace {
			if b, err = traceBackend(b, e.bst); err != nil {
				return err
			}
		}
		e.stores = append(e.stores, store.New(b))
	}
	return nil
}

// serve starts the PReServ endpoint — over the one store, or over a
// router fronting all of them — and the registry.
func (e *env) serve(sharded bool) error {
	if sharded {
		shards := make([]shard.Shard, len(e.stores))
		for i, st := range e.stores {
			shards[i] = shard.NewLocal(st)
			if e.cfg.trace {
				var err error
				if shards[i], err = traceShard(shards[i], e.sst); err != nil {
					return err
				}
			}
		}
		rt, err := shard.NewRouter(shards...)
		if err != nil {
			return err
		}
		e.router = rt
		e.svc = preserv.NewShardedService(rt)
	} else {
		e.svc = preserv.NewService(e.stores[0])
	}
	srv, err := preserv.Serve(e.svc, "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = srv
	rsrv, err := registry.Serve(registry.NewRegistry(), "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.reg = rsrv
	return experiment.PublishAll(registry.NewClient(rsrv.URL, nil), []string{"gzip", "ppmz"})
}

// client opens a benchmark client on its own connection stream.
func (e *env) client(stream int) *bclient {
	return newClient(e.srv.URL, e.reg.URL, e.cfg.trace, e.cfg.seed, stream)
}

// close stops the servers and closes the stores.
func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.reg != nil {
		e.reg.Close()
	}
	if e.router != nil {
		e.router.Close()
		return
	}
	for _, st := range e.stores {
		st.Close()
	}
}

// diskBytes sums the sizes of the files under the store directories.
// A file the store removes during the walk counts as gone.
func (e *env) diskBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(e.dir, func(path string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(e.dir, path)
		if d.IsDir() || !strings.HasPrefix(rel, "store-") {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// liveRecordBytes sums the encoded size of every live record.
func (e *env) liveRecordBytes() (records, bytes int64, err error) {
	for _, b := range e.raw {
		for _, prefix := range []string{"i/", "s/"} {
			err = b.Scan(prefix, func(_ string, v []byte) error {
				records++
				bytes += int64(len(v))
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
		}
	}
	return records, bytes, nil
}
