package repro.sim

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Execution profile of one stage of a query: the raw material both the
  * cluster simulator and the Sparklens estimator scale to other executor
  * counts.
  *
  * @param stageId          Spark stage id (attempt 0)
  * @param jobIndex         0-based index of the job this stage belonged to;
  *                         jobs of a SQL query run sequentially (AQE submits
  *                         them one after another), which the simulator
  *                         enforces as a barrier
  * @param parentIds        stage ids this stage shuffles from (may reference
  *                         skipped stages that produced no tasks)
  * @param taskDurationsMs  per-task run times as observed on the live run
  * @param shuffleReadBytes total shuffle bytes fetched by the stage
  * @param inputBytes       total input (file scan) bytes read by the stage
  */
final case class StageProfile(
    stageId: Int,
    jobIndex: Int,
    parentIds: Seq[Int],
    taskDurationsMs: IndexedSeq[Double],
    shuffleReadBytes: Long,
    inputBytes: Long,
) {
  val totalTaskMs: Double = taskDurationsMs.sum
  val maxTaskMs: Double   = if (taskDurationsMs.isEmpty) 0.0 else taskDurationsMs.max
  def numTasks: Int       = taskDurationsMs.length

  /** The task durations longest first, the order the simulator launches
    * them in: an ascending primitive sort read backwards (durations are
    * never NaN, so this is the order of `sortBy(-_)`).
    */
  private[sim] val longestFirstMs: Array[Double] = {
    val ascending = taskDurationsMs.toArray
    java.util.Arrays.sort(ascending)
    val out = new Array[Double](ascending.length)
    var i = 0
    while (i < out.length) { out(i) = ascending(out.length - 1 - i); i += 1 }
    out
  }
}

/** Full task-level profile of one query run — the analogue of the paper's
  * single profiling run (at n=16) whose Spark event log feeds Sparklens
  * (§3.4, §4.1).
  *
  * @param queryId   workload query identifier
  * @param wallMs    end-to-end elapsed time of the run
  * @param driverMs  time not covered by any running stage (driver-side
  *                  planning, result collection, job submission gaps) — the
  *                  serial floor no executor count can remove
  */
final case class TaskProfile(
    queryId: String,
    stages: IndexedSeq[StageProfile],
    wallMs: Double,
    driverMs: Double,
) {
  /** The stages in the order the simulator runs them: by job, then stage id. */
  private[sim] val runOrder: IndexedSeq[StageProfile] = stages.sortBy(s => (s.jobIndex, s.stageId))

  /** Write the profile file; see [[TaskProfile.load]] for the format. */
  def save(path: Path): Unit = {
    require(queryId.nonEmpty && !queryId.exists(_.isWhitespace), s"query id '$queryId' must be one word")
    def list(xs: Seq[Any]): String = if (xs.isEmpty) "-" else xs.mkString(",")
    val sb = new StringBuilder
    sb.append(s"${TaskProfile.Magic} ${TaskProfile.Version}\n")
    sb.append(s"query $queryId $wallMs $driverMs ${stages.size}\n")
    stages.foreach { s =>
      sb.append(s"stage ${s.stageId} ${s.jobIndex} ${list(s.parentIds)} ${s.shuffleReadBytes} ${s.inputBytes} ${list(s.taskDurationsMs)}\n")
    }
    if (path.getParent != null) Files.createDirectories(path.getParent)
    Files.writeString(path, sb.toString, UTF_8)
  }
}

object TaskProfile {
  private val Magic   = "repro-profile"
  private val Version = 1

  /** Read a profile file written by [[TaskProfile.save]]:
    *
    * {{{
    * repro-profile 1
    * query <id> <wallMs> <driverMs> <stageCount>
    * stage <stageId> <jobIndex> <parentIds|-> <shuffleReadBytes> <inputBytes> <taskMs>,...
    * }}}
    *
    * One `stage` line per stage; an empty list is written `-`. Doubles are
    * written with `Double.toString`, which parses back to the identical
    * value. Another magic or version, or a stage count other than the
    * header's, is rejected.
    */
  def load(path: Path): TaskProfile = {
    def fail(msg: String): Nothing = throw new IllegalArgumentException(s"$path: $msg")
    def list[A](s: String)(f: String => A): IndexedSeq[A] =
      if (s == "-") IndexedSeq.empty else s.split(',').toIndexedSeq.map(f)
    try Files.readString(path, UTF_8).split('\n').toSeq.map(_.split(' ').toSeq) match {
      case Seq(Seq(Magic, v), Seq("query", queryId, wallMs, driverMs, nStages), stageLines @ _*) =>
        if (v != Version.toString) fail(s"profile version $v, this reader knows $Version")
        if (stageLines.size != nStages.toInt) fail(s"header says $nStages stages, file has ${stageLines.size} stage lines")
        val stages = stageLines.map {
          case Seq("stage", id, job, parents, shuffleRead, input, tasks) =>
            StageProfile(id.toInt, job.toInt, list(parents)(_.toInt), list(tasks)(_.toDouble), shuffleRead.toLong, input.toLong)
          case other => fail(s"bad stage line '${other.mkString(" ")}'")
        }
        TaskProfile(queryId, stages.toIndexedSeq, wallMs.toDouble, driverMs.toDouble)
      case _ => fail(s"not a $Magic file")
    } catch { case e: NumberFormatException => fail(s"bad number: ${e.getMessage}") }
  }
}

/** SparkListener that records per-task durations, stage lineage and stage
  * wall-clock windows for everything that runs while it is attached.
  *
  * Stand-in for the paper's Peregrine/SparkCruise telemetry + Spark event
  * logs: attach, run the query once, detach, and [[ProfileCollector.profile]]
  * assembles a [[TaskProfile]].
  */
final class ProfileCollector extends SparkListener {
  private val taskDurations = mutable.Map.empty[Int, mutable.ArrayBuffer[Double]]
  private val shuffleRead   = mutable.Map.empty[Int, Long]
  private val inputRead     = mutable.Map.empty[Int, Long]
  private val parents       = mutable.Map.empty[Int, Seq[Int]]
  private val stageWindows  = mutable.Map.empty[Int, (Long, Long)]
  private val stageJob      = mutable.Map.empty[Int, Int]
  private val jobOrder      = mutable.ArrayBuffer.empty[Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val jobIndex = jobOrder.length
    jobOrder += e.jobId
    e.stageInfos.foreach { si =>
      // A stage can appear in several jobs (shuffle reuse); keep the first,
      // which is the job that actually ran it.
      if (!stageJob.contains(si.stageId)) stageJob(si.stageId) = jobIndex
      parents.getOrElseUpdate(si.stageId, si.parentIds)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.stageAttemptId == 0 && e.taskInfo != null && e.taskInfo.successful) {
      taskDurations.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) +=
        math.max(e.taskInfo.duration.toDouble, 1.0)
      if (e.taskMetrics != null) {
        shuffleRead(e.stageId) = shuffleRead.getOrElse(e.stageId, 0L) +
          e.taskMetrics.shuffleReadMetrics.totalBytesRead
        inputRead(e.stageId) = inputRead.getOrElse(e.stageId, 0L) +
          e.taskMetrics.inputMetrics.bytesRead
      }
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val si = e.stageInfo
    if (si.attemptNumber == 0) {
      for (sub <- si.submissionTime; comp <- si.completionTime)
        stageWindows(si.stageId) = (sub, comp)
      parents.getOrElseUpdate(si.stageId, si.parentIds)
    }
  }

  /** Assemble the profile for a run that took `wallMs` end-to-end. */
  def profile(queryId: String, wallMs: Double): TaskProfile = synchronized {
    val stages = taskDurations.keys.toIndexedSeq.sorted.map { sid =>
      StageProfile(
        stageId = sid,
        jobIndex = stageJob.getOrElse(sid, 0),
        parentIds = parents.getOrElse(sid, Seq.empty),
        taskDurationsMs = taskDurations(sid).toIndexedSeq,
        shuffleReadBytes = shuffleRead.getOrElse(sid, 0L),
        inputBytes = inputRead.getOrElse(sid, 0L),
      )
    }
    // Driver time = wall time minus the union of stage wall-clock windows:
    // the part of the run no amount of executors can shrink.
    val covered = unionMs(stageWindows.values.toSeq)
    TaskProfile(queryId, stages, wallMs, driverMs = math.max(wallMs - covered, 0.0))
  }

  private def unionMs(windows: Seq[(Long, Long)]): Double = {
    if (windows.isEmpty) return 0.0
    val sorted = windows.sortBy(_._1)
    var total = 0L
    var (curStart, curEnd) = sorted.head
    for ((s, e) <- sorted.tail) {
      if (s > curEnd) { total += curEnd - curStart; curStart = s; curEnd = e }
      else curEnd = math.max(curEnd, e)
    }
    total += curEnd - curStart
    total.toDouble
  }
}

object ProfileCollector {

  /** Run `body` once with a fresh collector attached and return its profile.
    * The listener bus is flushed before detaching so late task-end events are
    * not lost.
    */
  def profileRun(spark: SparkSession, queryId: String)(body: => Unit): TaskProfile = {
    val collector = new ProfileCollector
    spark.sparkContext.addSparkListener(collector)
    val t0 = System.nanoTime()
    try {
      body
      val wallMs = (System.nanoTime() - t0) / 1e6
      // Listener events are delivered asynchronously; drain the bus.
      org.apache.spark.repro.SparkInternals.drainListenerBus(spark.sparkContext)
      collector.profile(queryId, wallMs)
    } finally spark.sparkContext.removeSparkListener(collector)
  }
}
