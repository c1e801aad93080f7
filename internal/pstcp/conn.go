package pstcp

import (
	"net"
	"time"
)

// deadlineConn wraps a connection so every read and write first arms its
// deadline — the hardening layer both endpoints build their buffered
// readers and writers on. A peer silent past the read timeout fails the
// read (the loop closes the connection instead of waiting forever); a
// peer not draining past the write timeout fails the write (the send loop
// requeues instead of wedging). A zero timeout arms no deadline: that
// direction blocks for as long as the peer lets it.
type deadlineConn struct {
	conn         net.Conn
	readTimeout  time.Duration
	writeTimeout time.Duration
}

func (d deadlineConn) Read(p []byte) (int, error) {
	if d.readTimeout > 0 {
		// A failed arm means the connection is already dead (or the OS
		// rejected the timer); surfacing it here fails the read the same
		// way an expired deadline would, instead of silently reading
		// unbounded.
		//p3:wallclock-ok deadlines are anchored to real time by definition
		if err := d.conn.SetReadDeadline(time.Now().Add(d.readTimeout)); err != nil {
			return 0, err
		}
	}
	return d.conn.Read(p)
}

func (d deadlineConn) Write(p []byte) (int, error) {
	if d.writeTimeout > 0 {
		//p3:wallclock-ok deadlines are anchored to real time by definition
		if err := d.conn.SetWriteDeadline(time.Now().Add(d.writeTimeout)); err != nil {
			return 0, err
		}
	}
	return d.conn.Write(p)
}
