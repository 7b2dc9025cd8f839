package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// newHTTPClient returns a client that keeps one connection per host
// alive, so each load goroutine reuses its own connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			DisableCompression:  true,
		},
	}
}

// call issues one request and reads the whole body. A status other than
// 200 is an error.
func call(c *http.Client, method, url, tenant string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("x-tenant", tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// overview is the /api/overview answer.
type overview struct {
	Documents  int    `json:"documents"`
	Subjects   int    `json:"subjects"`
	Facts      int    `json:"facts"`
	Generation uint64 `json:"generation"`
}

// ingestAck is the /api/ingest answer.
type ingestAck struct {
	IDs        []string `json:"ids"`
	Facts      int      `json:"facts"`
	Generation uint64   `json:"generation"`
}
