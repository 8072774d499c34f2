package sim

// Server models a work-conserving FIFO service center (a disk, a shared
// bus) analytically: instead of spawning a process per request, the finish
// time of each request is computed from the server's backlog. This is exact
// for FIFO single-server queues with known service times and keeps the
// event count independent of request volume.
type Server struct {
	name string
	// nextFree is the virtual time at which the server becomes idle.
	nextFree Time
	// stats
	ops     uint64
	busy    Duration // total service time delivered
	waited  Duration // total queueing delay imposed
	maxWait Duration
}

// NewServer creates a FIFO server with a diagnostic name.
func NewServer(name string) *Server { return &Server{name: name} }

// Serve enqueues a request arriving at time now with the given service
// time, and returns the request's sojourn time (queueing + service). The
// caller is responsible for advancing its own clock by the returned value.
func (s *Server) Serve(now Time, service Duration) Duration {
	if service < 0 {
		service = 0
	}
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	wait := Duration(start - now)
	s.nextFree = start + Time(service)
	s.ops++
	s.busy += service
	s.waited += wait
	if wait > s.maxWait {
		s.maxWait = wait
	}
	return wait + service
}

// Backlog returns the delay a request arriving at now would queue for.
func (s *Server) Backlog(now Time) Duration {
	if s.nextFree <= now {
		return 0
	}
	return Duration(s.nextFree - now)
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Ops returns the number of requests served.
func (s *Server) Ops() uint64 { return s.ops }

// BusyTime returns the cumulative service time delivered.
func (s *Server) BusyTime() Duration { return s.busy }

// WaitTime returns the cumulative queueing delay imposed on requests.
func (s *Server) WaitTime() Duration { return s.waited }

// MaxWait returns the largest single queueing delay observed.
func (s *Server) MaxWait() Duration { return s.maxWait }

// Reset clears statistics and backlog (for reuse across runs).
func (s *Server) Reset() {
	s.nextFree = 0
	s.ops = 0
	s.busy = 0
	s.waited = 0
	s.maxWait = 0
}
