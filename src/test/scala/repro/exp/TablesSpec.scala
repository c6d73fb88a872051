package repro.exp

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.Sf100Fixture
import repro.sim.{ClusterSimulator, SparklensEstimator}
import repro.tpcds.Queries

object TablesSpec {

  /** The committed SF100 capture as a workload: Actual from the cluster
    * simulator (5 repetitions, seed 7) and Sparklens, both on the paper grid.
    */
  lazy val fixture: Workload = {
    val queries = Queries.all.map(q => q.id -> q).toMap
    Workload("SF100", 0.1, Sf100Fixture.entries.map { e =>
      QueryData(queries(e.id), e.profile, e.features,
        ClusterSimulator.actualCurve(e.profile, WorkloadRunner.Grid, reps = 5, seed = 7),
        SparklensEstimator.curve(e.profile, WorkloadRunner.Grid))
    })
  }

  def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(UTF_8)).map("%02x".format(_)).mkString
}

class TablesSpec extends AnyFunSuite {
  import TablesSpec.{fixture, sha256}

  /** SF10 is never built here: reading it fails the test. */
  private lazy val tables = new Tables(fixture, throw new AssertionError("SF10 was forced"))

  test("T1, T3, T4, T5, T6 and T8b reports on the fixture are the pinned texts") {
    // SHA-256 of each report as the experiments' own run and report calls
    // print it for this workload and a 10×5-fold CV at seed 7.
    val pinned = Seq(
      "T1"  -> "32e2564e3ac6ac960813d1502bb5745c16b1c558baf66519223d068b61bcfb47",
      "T3"  -> "46d01d27655de634202e18974222398640ef03f9916dd511df22da6524b7d5e8",
      "T4"  -> "6ac234d722a97cbe0741b20814f74b7c1503b4b29016f0dfcff185225badd928",
      "T5"  -> "4d35a3985fa2cb80512aa573f24b0762bdd19465bac45568632e48df2d64e85f",
      "T6"  -> "a7b5a15e50b8475061960591b87b6dd120daeb92e8ba2308f96ade8006d1692d",
      "T8b" -> "36ba4d30fc6ef06c2750d26f8d09e84b4c7da5e8c3c36139dc92935c21f53403",
    )
    for ((name, digest) <- pinned) assert(sha256(tables.report(name)) == digest, name)
  }

  test("only T7 forces the SF10 workload") {
    // T8a reads only SF100 and the folds, like T8b; its 100-repeat
    // permutation importance is left out here for time.
    for (name <- Seq("T1", "T2", "T3", "T4", "T5", "T6", "T8b", "T9"))
      assert(tables.report(name).nonEmpty, name)
    val e = intercept[AssertionError](tables.t7)
    assert(e.getMessage == "SF10 was forced")
  }

  test("an unknown table name throws, naming the known ones") {
    val e = intercept[NoSuchElementException](tables.report("T10"))
    (Tables.Names :+ "T8a" :+ "T8b").foreach(n => assert(e.getMessage.contains(n), e.getMessage))
    assert(e.getMessage.contains("T10"), e.getMessage)
  }
}
