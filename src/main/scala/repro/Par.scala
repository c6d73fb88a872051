package repro

import java.util.concurrent.{ForkJoinTask, RecursiveAction}
import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

/** Ordered parallel map over `0 until n`.
  *
  * Tasks run on the JVM's common ForkJoinPool, or on the caller's own pool
  * when the caller is already a ForkJoinPool worker. Result `i` is `f(i)`,
  * written at index `i`, so the output never depends on scheduling. Callers
  * fix every task's inputs, seeds included, before the fan-out and keep
  * reductions over the results sequential; results then do not depend on
  * the core count. The common pool can be capped with the standard JVM
  * property `-Djava.util.concurrent.ForkJoinPool.common.parallelism=N`.
  */
object Par {

  def tabulate[A: ClassTag](n: Int)(f: Int => A): IndexedSeq[A] = {
    val out = new Array[A](n)
    // Halve down to single indices: tasks differ widely in cost (tree sizes,
    // executor counts), so fine grains keep the work stealing balanced.
    final class Slice(lo: Int, hi: Int) extends RecursiveAction {
      def compute(): Unit =
        if (hi - lo == 1) out(lo) = f(lo)
        else {
          val mid = (lo + hi) >>> 1
          ForkJoinTask.invokeAll(new Slice(lo, mid), new Slice(mid, hi))
        }
    }
    if (n > 0) new Slice(0, n).invoke()
    ArraySeq.unsafeWrapArray(out)
  }
}
