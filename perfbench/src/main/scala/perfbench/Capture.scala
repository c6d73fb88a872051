package perfbench

import java.nio.file.{Path, Paths}
import repro.exp.WorkloadRunner

/** Captures the SF100 fixture that `offline-eval` and `live-plan` read:
  * materializes sf=0.1 TPC-DS-lite and profiles all 103 queries through
  * `WorkloadRunner.build` (about 20 minutes on 4 cores).
  *
  * {{{
  * java -cp <classpath> perfbench.Capture <out-file> <work-dir> [<profile-cache-dir>]
  * }}}
  *
  * A profile cache directory that already holds this sf's profiles turns the
  * capture into a re-encoding of them.
  */
object Capture {
  val Sf      = 0.1
  val SfLabel = "SF100"

  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: Capture <out-file> <work-dir> [<profile-cache-dir>]")
    val out  = Paths.get(args(0))
    val work = Paths.get(args(1))
    val cache: Path = if (args.length > 2) Paths.get(args(2)) else work.resolve("capture-profiles")
    val spark = Session.start(work)
    try {
      val t0 = System.nanoTime()
      val w = WorkloadRunner.build(spark, Sf, SfLabel, dataDir = work.resolve("data"), cacheDir = cache)
      val seconds = (System.nanoTime() - t0) / 1e9
      val machine = Session.machine(Some(spark)) + ("capture_s" -> f"$seconds%.1f")
      Fixture.write(Fixture(SfLabel, Sf, machine, w.queries.map(q => FixtureQuery(q.query, q.profile, q.features))), out)
      Console.err.println(f"[capture] wrote ${w.queries.size} queries to $out in $seconds%.1f s")
    } finally Session.stop(spark)
  }
}
