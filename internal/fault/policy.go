package fault

import (
	"fmt"
	"math"
)

// checkArgs validates the (C, MTBF) pair shared by the interval
// optimizers. The MTBF here is the one the application sees — for a
// coordinated job that is the SYSTEM MTBF (per-node MTBF / nodes),
// since any node's crash stalls the whole job.
func checkArgs(checkpointSeconds, mtbfSeconds float64) error {
	if math.IsNaN(checkpointSeconds) || math.IsInf(checkpointSeconds, 0) || checkpointSeconds <= 0 {
		return fmt.Errorf("fault: checkpoint cost must be > 0 seconds, got %v", checkpointSeconds)
	}
	if math.IsNaN(mtbfSeconds) || math.IsInf(mtbfSeconds, 0) || mtbfSeconds <= 0 {
		return fmt.Errorf("fault: MTBF must be > 0 seconds, got %v", mtbfSeconds)
	}
	return nil
}

// YoungInterval returns Young's first-order optimal checkpoint
// interval, sqrt(2*C*M): the classic balance between checkpoint
// overhead (~C/tau per unit work) and expected rework (~tau/2 per
// failure).
func YoungInterval(checkpointSeconds, mtbfSeconds float64) (float64, error) {
	if err := checkArgs(checkpointSeconds, mtbfSeconds); err != nil {
		return 0, err
	}
	return math.Sqrt(2 * checkpointSeconds * mtbfSeconds), nil
}

// DalyInterval returns Daly's higher-order estimate of the optimal
// checkpoint interval (J. T. Daly, "A higher order estimate of the
// optimum checkpoint interval for restart dumps", FGCS 2006):
//
//	tau = sqrt(2*C*M) * [1 + (1/3)*sqrt(C/(2M)) + (1/9)*(C/(2M))] - C
//
// for C < 2M, and tau = M once checkpoints cost more than the machine
// stays up (the model says: just run).
func DalyInterval(checkpointSeconds, mtbfSeconds float64) (float64, error) {
	if err := checkArgs(checkpointSeconds, mtbfSeconds); err != nil {
		return 0, err
	}
	c, m := checkpointSeconds, mtbfSeconds
	if c >= 2*m {
		return m, nil
	}
	x := c / (2 * m)
	return math.Sqrt(2*c*m)*(1+math.Sqrt(x)/3+x/9) - c, nil
}
