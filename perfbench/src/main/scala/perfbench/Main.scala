package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import scala.collection.mutable
import scala.util.control.NonFatal

/** Parsed command line. `work` is a working directory the run owns and its caller deletes. */
final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, work: Path, fixture: Path, spans: Path)

/** Metrics the benchmark declares, in print order, with their units. Every
  * workload prints all of them: a per-layer metric of a layer the workload
  * never calls reads 0.
  */
object MetricNames {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s"   -> "s",
    "pass_s"    -> "s",
    "op_ms_p50" -> "ms",
  )
  val PerLayer: Seq[(String, String)] = Seq(
    "core.decisions_per_query" -> "count",
    "core.featurize_us_p50"    -> "us",
    "core.score_us_p50"        -> "us",
    "core.select_us_p50"       -> "us",
    "core.decision_mismatch"   -> "count",
    "core.model_load_ms"       -> "ms",
    "core.model_bytes"         -> "bytes",
    "core.ppm_fit_us_p50"      -> "us",
    "catalyst.plan_ms_p50"     -> "ms",
    "ml.forest_fit_ms_p50"     -> "ms",
    "ml.forests_trained"       -> "count",
    "ml.tree_nodes"            -> "count",
    "sim.actual_curve_ms_p50"  -> "ms",
    "sim.simulations"          -> "count",
    "sim.sim_tasks"            -> "count",
    "sim.sparklens_us_p50"     -> "us",
    "tpcds.materialize_s"      -> "s",
    "exp.cv_s"                 -> "s",
    "exp.predict_s"            -> "s",
    "exp.alloc_s"              -> "s",
    "exp.e_n_ae_pl"            -> "ratio",
    "exp.e_n_ae_al"            -> "ratio",
    "exp.auc_saving_vs_da"     -> "ratio",
    "exp.slowdown_vs_da"       -> "ratio",
    "jvm.heap_live_mb"         -> "MB",
    "trace.spans"              -> "count",
  ) ++ EndToEnd.map { case (name, unit) => s"trace.$name" -> unit }
  val NamePattern = "[A-Za-z0-9_.-]+"

  /** Per-layer metrics start at 0, the reading of a layer a workload never calls. */
  def zeroLayers: Seq[(String, Double)] = PerLayer.map(_._1 -> 0.0)
}

/** What one run measured. `notes` are the human-readable lines printed
  * before the JSON result.
  */
final class Result {
  val e2e     = mutable.LinkedHashMap.empty[String, Double]
  val layer   = mutable.LinkedHashMap.empty[String, Double]
  val notes   = mutable.ArrayBuffer.empty[String]
  var correct = true

  def note(s: String): Unit = notes += s

  /** The last stdout line: e2e metrics untraced, per-layer metrics traced. */
  def json(trace: Boolean, ops: Ops): String = {
    val (declared, values) = if (trace) (MetricNames.PerLayer, layer) else (MetricNames.EndToEnd, e2e)
    val missing = declared.map(_._1).filterNot(values.contains)
    require(missing.isEmpty, s"metrics not measured: ${missing.mkString(", ")}")
    val ok = correct && ops.failed == 0 && declared.forall(d => values(d._1).isFinite)
    val metrics = declared.map { case (name, unit) =>
      val v = values(name)
      s""""$name": {"value": ${if (v.isFinite) v.toString else "null"}, "unit": "$unit"}"""
    }
    s"""{"correct": $ok, "attempted": ${ops.attempted}, "failed": ${ops.failed}, "metrics": {${metrics.mkString(", ")}}}"""
  }
}

/** The single closed-loop client: runs one operation at a time, times it,
  * and counts it as failed when it throws or its output check fails.
  * Failed operations contribute no latency sample.
  */
final class Ops(result: Result) {
  var attempted = 0L
  var failed    = 0L

  /** Run `body`; `check` returns a reason when the output is wrong. */
  def apply[A](what: => String)(body: => A)(check: A => Option[String]): Option[(A, Double)] = {
    attempted += 1
    val t0 = System.nanoTime()
    val outcome =
      try Right(body)
      catch { case NonFatal(e) => Left(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
    val ms = (System.nanoTime() - t0) / 1e6
    outcome.flatMap(a => check(a).toLeft(a)) match {
      case Right(a) => Some((a, ms))
      case Left(why) =>
        failed += 1
        if (failed <= 5) result.note(s"operation failed: $what: $why")
        None
    }
  }
}

object Main {

  /** Set-up repetitions per run; `setup_s` is their median. A set-up is
    * everything a fresh process does before its first timed operation,
    * warm-up included. The first is cold (JVM start, class loading, JIT),
    * the second warm; two keep a live-plan run near a minute.
    */
  val SetupReps = 2

  /** Nanosecond clock reading at JVM start: the first set-up is timed from
    * there, so class loading and JIT of the set-up path count in `setup_s`.
    */
  def jvmStartNs: Long = {
    val sinceStartMs = System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime
    System.nanoTime() - sinceStartMs * 1000000L
  }

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(
      workload = get("workload"),
      seed = get("seed").toLong,
      seconds = get("seconds").toDouble,
      trace = get("trace") match { case "0" => false; case "1" => true; case t => throw new IllegalArgumentException(s"--trace $t") },
      work = Paths.get(get("work")),
      fixture = Paths.get(get("fixture")),
      spans = Paths.get(get("spans")),
    )
  }

  /** Run `setup` [[SetupReps]] times, the first timed from `jvmStart`, and
    * tear down all but the last state. Returns it with each set-up's seconds.
    */
  def repeatSetup[S](jvmStart: Long)(setup: Int => S)(teardown: S => Unit): (S, IndexedSeq[Double]) = {
    var state: Option[S] = None
    val secs = (0 until SetupReps).map { i =>
      state.foreach(teardown)
      val t0 = if (i == 0) jvmStart else System.nanoTime()
      state = Some(setup(i))
      (System.nanoTime() - t0) / 1e9
    }
    (state.get, secs)
  }

  /** Live heap after a full collection, in MB: taken at the end of a
    * workload, before its session stops, so resident state counts.
    */
  def heapLiveMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def main(argv: Array[String]): Unit = {
    val t0     = jvmStartNs
    val args   = parse(argv)
    val result = new Result
    val ops    = new Ops(result)
    val tracer = new Tracer(args.trace)
    result.layer ++= MetricNames.zeroLayers
    args.workload match {
      case LivePlan.Name    => LivePlan.run(args, t0, tracer, ops, result)
      case OfflineEval.Name => OfflineEval.run(args, t0, tracer, ops, result)
      case w => throw new IllegalArgumentException(s"unknown workload $w")
    }
    result.layer("trace.spans") = tracer.all.size.toDouble
    // The traced run's own end-to-end figures: minus the untraced run's,
    // they give the tracing overhead.
    result.e2e.foreach { case (name, v) => result.layer(s"trace.$name") = v }
    if (args.trace) tracer.write(args.spans)
    result.note(s"machine ${Session.machine(None).toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
    result.notes.foreach(println)
    println(result.json(args.trace, ops))
  }
}
