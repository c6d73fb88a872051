package repro.sim

/** Executor-allocation skyline: the step function `n_s` of executors held at
  * each moment `s` of a query's lifetime (paper §2, Figure 12).
  *
  * @param deltas (timeMs, +k/-k) allocation change events, unsorted ok
  * @param endMs  end of the query (all executors released here)
  */
final case class Skyline(deltas: IndexedSeq[(Double, Int)], endMs: Double) {

  /** Step representation: (timeMs, executor count from this time on). */
  lazy val steps: IndexedSeq[(Double, Int)] = {
    val sorted = deltas.sortBy(_._1)
    var count  = 0
    val out    = IndexedSeq.newBuilder[(Double, Int)]
    // Merge simultaneous events into one step.
    sorted.groupBy(_._1).toIndexedSeq.sortBy(_._1).foreach { case (t, evs) =>
      count += evs.map(_._2).sum
      out += ((t, count))
    }
    out.result()
  }

  /** Peak allocation `n = max(n_s)` (paper metric 1). */
  def maxN: Int = if (steps.isEmpty) 0 else steps.map(_._2).max

  /** Total executor occupancy `AUC = ∫ n_s ds` in executor-seconds (paper
    * metric 2, the red labels of Figure 1).
    */
  def aucExecutorSeconds: Double = {
    var total = 0.0
    val s = steps
    var i = 0
    while (i < s.length) {
      val (t, n)  = s(i)
      val nextT   = if (i + 1 < s.length) s(i + 1)._1 else endMs
      if (nextT > t) total += n * (nextT - t)
      i += 1
    }
    total / 1000.0
  }
}
