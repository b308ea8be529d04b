package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one persistent HTTP/1.1 client connection. The rig pins the
// number of client connections, so it speaks the protocol over its own
// socket instead of through http.Transport's pool.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte // request scratch
	body []byte // reply scratch, valid until the next call
}

func dialConn(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	return nil
}

func (c *conn) Close() { c.c.Close() }

// reply is what the checks need from one answer.
type reply struct {
	status   int
	degraded bool
	body     []byte
}

// get sends GET path and reads the answer.
func (c *conn) get(path []byte) (reply, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	return c.roundTrip()
}

// post sends POST path with a JSON payload and reads the answer.
func (c *conn) post(path string, payload []byte) (reply, error) {
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(payload)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, payload...)
	return c.roundTrip()
}

// roundTrip writes c.req and reads one response. A transport failure or
// an answer later than replyTimeout closes the connection and redials,
// so one lost request fails once and the stream goes on.
func (c *conn) roundTrip() (reply, error) {
	rp, err := c.exchange()
	if err != nil {
		if rerr := c.redial(); rerr != nil {
			return rp, fmt.Errorf("%w (redial: %v)", err, rerr)
		}
	}
	return rp, err
}

func (c *conn) exchange() (reply, error) {
	if err := c.c.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return reply{}, err
	}
	if _, err := c.c.Write(c.req); err != nil {
		return reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.body = c.body[:0]
	if resp.ContentLength >= 0 {
		if int64(cap(c.body)) < resp.ContentLength {
			c.body = make([]byte, 0, resp.ContentLength)
		}
		c.body = c.body[:resp.ContentLength]
		_, err = io.ReadFull(resp.Body, c.body)
	} else {
		c.body, err = io.ReadAll(resp.Body)
	}
	rp := reply{status: resp.StatusCode, degraded: resp.Header.Get("X-Zoomer-Degraded") != "", body: c.body}
	return rp, err
}
