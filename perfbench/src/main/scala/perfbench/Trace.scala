package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** One timed call into a layer. `parent` is the enclosing span's id (-1 at
  * the root); spans of one operation share `runId`.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, runId: String) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder placed around the benchmark's calls into each
  * layer. When disabled, [[span]] runs its body and records nothing, so an
  * untraced run pays one branch per call site.
  */
final class Tracer(val enabled: Boolean) {
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.LinkedHashMap.empty[String, Long]
  private var stack  = List.empty[Int]
  private var runId  = ""

  /** Tag the spans recorded inside `body` with operation id `id`. */
  def run[A](id: String)(body: => A): A = {
    val saved = runId
    runId = id
    try body finally runId = saved
  }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = spans.length
      val parent = stack.headOption.getOrElse(-1)
      spans += null // reserve the slot so ids follow start order
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, name, t0, System.nanoTime(), runId)
        stack = stack.tail
      }
    }

  /** Add `n` to counter `name` (counted only when tracing). */
  def count(name: String, n: Long = 1L): Unit =
    if (enabled) counts(name) = counts.getOrElse(name, 0L) + n

  def counter(name: String): Long = counts.getOrElse(name, 0L)

  def all: IndexedSeq[Span] = spans.toIndexedSeq

  /** Durations (ms) of every span called `name`. */
  def durations(name: String): IndexedSeq[Double] = spans.iterator.filter(_.name == name).map(_.ms).toIndexedSeq

  /** Self time (ms) of each span called `name`: its duration minus the time
    * its direct children cover. Children run inside their parent and one
    * after another, so their durations do not overlap.
    */
  def selfTimes(name: String): IndexedSeq[Double] = {
    val childMs = mutable.Map.empty[Int, Double].withDefaultValue(0.0)
    spans.foreach(s => if (s.parent >= 0) childMs(s.parent) += s.ms)
    spans.iterator.filter(_.name == name).map(s => s.ms - childMs(s.id)).toIndexedSeq
  }

  /** Write spans as JSON lines, then counters as one last line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val sb = new StringBuilder
    spans.foreach { s =>
      sb.append(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs},"run":"${s.runId}"}""").append('\n')
    }
    sb.append(counts.map { case (k, v) => s""""$k":$v""" }.mkString("{\"counters\":{", ",", "}}")).append('\n')
    Files.writeString(path, sb.toString, UTF_8)
  }
}

