package repro.sim

import org.scalatest.funsuite.AnyFunSuite

class SkylineSpec extends AnyFunSuite {

  test("static skyline holds n for the whole run") {
    val s = Skyline(IndexedSeq((0.0, 4)), endMs = 10000.0)
    assert(s.maxN == 4)
    assert(math.abs(s.aucExecutorSeconds - 40.0) < 1e-9)
  }

  test("steps merge simultaneous deltas") {
    val s = Skyline(IndexedSeq((0.0, 1), (0.0, 1), (5.0, -1)), endMs = 10.0)
    assert(s.steps == IndexedSeq((0.0, 2), (5.0, 1)))
  }

  test("AUC integrates a ramp-up/ramp-down shape") {
    // 1 executor [0,2s), 3 executors [2,4s), 1 executor [4,6s).
    val s = Skyline(IndexedSeq((0.0, 1), (2000.0, 2), (4000.0, -2)), endMs = 6000.0)
    assert(s.maxN == 3)
    assert(math.abs(s.aucExecutorSeconds - (1 * 2 + 3 * 2 + 1 * 2)) < 1e-9)
  }

  test("unsorted deltas are handled") {
    val s = Skyline(IndexedSeq((5000.0, -1), (0.0, 2)), endMs = 10000.0)
    assert(s.maxN == 2)
    assert(math.abs(s.aucExecutorSeconds - (2 * 5 + 1 * 5)) < 1e-9)
  }

  test("empty skyline has zero occupancy") {
    val s = Skyline(IndexedSeq.empty, endMs = 100.0)
    assert(s.maxN == 0)
    assert(s.aucExecutorSeconds == 0.0)
  }

  test("releases at endMs contribute nothing beyond the end") {
    val s = Skyline(IndexedSeq((0.0, 3), (1000.0, -3)), endMs = 1000.0)
    assert(math.abs(s.aucExecutorSeconds - 3.0) < 1e-9)
  }
}
