package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ccdac/internal/serve"
)

// daemon is an in-process ccdacd serving on loopback with a fresh
// store directory, driven over HTTP by one closed-loop client.
type daemon struct {
	srv      *serve.Server
	base     string
	client   *http.Client
	storeDir string
	cancel   context.CancelFunc
	done     chan error
}

// startDaemon boots a server with the daemon's defaults, except that
// the access log is discarded (it would flood the benchmark's output)
// and triggered profile capture is off (a 2 s CPU profile firing at a
// random point of a run is noise, not load).
func startDaemon(root, name string) (*daemon, error) {
	dir, err := scratchDir(root, name)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{
		Addr:          "127.0.0.1:0",
		StoreDir:      filepath.Join(dir, "store"),
		Logger:        slog.New(slog.NewJSONHandler(io.Discard, nil)),
		ProfileWindow: -1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		srv:      srv,
		storeDir: dir,
		cancel:   cancel,
		done:     make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
	go func() { d.done <- srv.ListenAndServe(ctx) }()
	for deadline := time.Now().Add(5 * time.Second); srv.Addr() == ""; {
		select {
		case err := <-d.done:
			cancel()
			return nil, fmt.Errorf("daemon did not start: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not bind within 5s")
		}
	}
	d.base = "http://" + srv.Addr()
	return d, nil
}

// stop drains the server, waits for it to exit and removes its store.
func (d *daemon) stop() {
	d.cancel()
	<-d.done
	d.client.CloseIdleConnections()
	_ = os.RemoveAll(d.storeDir)
}

// post sends one request and reads the whole body into buf.
func (d *daemon) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (d *daemon) get(path string, buf *bytes.Buffer) (int, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}
