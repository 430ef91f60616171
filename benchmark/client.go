package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// client is the benchmark's one closed-loop HTTP connection: a single
// keep-alive connection, requests issued strictly one after another.
type client struct {
	hc  *http.Client
	buf bytes.Buffer // response body scratch, reused across requests
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body. The
// returned slice aliases the client's scratch buffer and is only valid
// until the next call.
func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// subscriber is the one SSE change-feed client of a write phase. It
// reads frames on its own connection and stamps each sequence number
// with its arrival time; the data payload is not decoded, so the
// reader stays idle-most-of-the-time beside the closed-loop writer.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	arrived map[uint64]time.Time
	first   uint64 // first seq seen (0 = none yet)
	last    uint64
	gapErr  error
	notify  chan struct{} // poked (non-blocking) on every frame
}

// subscribe opens GET /subscribe at the live edge and returns once the
// server has answered 200, so every later commit reaches this stream.
func subscribe(base, session string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sessions/"+session+"/subscribe", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, b)
	}
	s := &subscriber{
		cancel:  cancel,
		done:    make(chan struct{}),
		arrived: map[uint64]time.Time{},
		notify:  make(chan struct{}, 1),
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		defer hc.CloseIdleConnections()
		rd := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := rd.ReadSlice('\n')
			if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
				return
			}
			rest, ok := bytes.CutPrefix(line, []byte("id: "))
			if !ok {
				continue
			}
			now := time.Now()
			seq, perr := strconv.ParseUint(strings.TrimSpace(string(rest)), 10, 64)
			if perr != nil {
				continue
			}
			s.mu.Lock()
			if s.first == 0 {
				s.first = seq
			} else if seq != s.last+1 && s.gapErr == nil {
				s.gapErr = fmt.Errorf("subscriber saw seq %d after %d", seq, s.last)
			}
			s.last = seq
			s.arrived[seq] = now
			s.mu.Unlock()
			select {
			case s.notify <- struct{}{}:
			default:
			}
		}
	}()
	return s, nil
}

// waitFor blocks until the frame for seq has arrived or the timeout
// passes.
func (s *subscriber) waitFor(seq uint64, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		ok := s.last >= seq
		s.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-s.notify:
		case <-s.done:
			return fmt.Errorf("subscriber stream ended before seq %d", seq)
		case <-deadline:
			return fmt.Errorf("subscriber did not see seq %d within %s", seq, timeout)
		}
	}
}

// arrival returns when seq's frame was read.
func (s *subscriber) arrival(seq uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.arrived[seq]
	return t, ok
}

// stop closes the stream and waits for the reader to exit. It returns
// the first gap or duplicate the reader observed, if any.
func (s *subscriber) stop() error {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gapErr
}
