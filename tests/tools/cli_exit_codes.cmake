# Pins templex_cli's documented exit-code convention (tools/templex_cli.cc
# header comment) end to end, including the kill-and-resume smoke: a run
# killed by a short --deadline-ms must leave a checkpoint that a --resume
# run completes, and the resumed chase JSON must be byte-identical to an
# uninterrupted run's. The same contract is pinned for the resource
# governor (a --max-bytes hard trip exits 7 with a committed checkpoint
# that resumes without the budget) and for the stall watchdog (a simulated
# stuck round under --stall-timeout-ms exits 5 — kCancelled's only
# external trigger — and the checkpoint resumes cleanly). Exit 3 is the
# query contract: an unknown predicate, a malformed goal, or an arity
# mismatch in --query is reported before any chase work starts.
#
# Invoked as:
#   cmake -DTEMPLEX_CLI=<binary> -DDATA_DIR=<tests/data> -DWORK_DIR=<scratch>
#         -P cli_exit_codes.cmake

foreach(var TEMPLEX_CLI DATA_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_exit expected label)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR
            "${label}: expected exit ${expected}, got ${code}\n${out}\n${err}")
  endif()
endfunction()

# --- 0: success ---------------------------------------------------------
expect_exit(0 "clean query run"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --query "Control(_, _)")
expect_exit(0 "bound query under forced qsqr"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --eval-mode qsqr
            --query "Control(\"Alfa\", _)")

# --- 2: usage errors ----------------------------------------------------
expect_exit(2 "no arguments" "${TEMPLEX_CLI}")
expect_exit(2 "unknown flag"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --no-such-flag)
expect_exit(2 "missing flag argument"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada" --facts)
expect_exit(2 "bad threads value"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --threads nope)
expect_exit(2 "removed --join-mode is an unknown flag"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --join-mode probe)
expect_exit(2 "resume without checkpoint dir"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --resume)
expect_exit(2 "bad eval-mode value"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --eval-mode eager)

# --- 3: bad query goal --------------------------------------------------
# Distinct from usage errors (the command line itself is well-formed) and
# from generic errors (program and facts load fine): the goal does not
# make sense against this program.
expect_exit(3 "unknown query predicate"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --query "NoSuchPredicate(_)")
expect_exit(3 "malformed query goal"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --query "Control(")
expect_exit(3 "query arity mismatch"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --query "Control(_)")
expect_exit(3 "unknown predicate under forced qsqr"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv" --eval-mode qsqr
            --query "NoSuchPredicate(_)")

# --- 1: generic errors --------------------------------------------------
expect_exit(1 "missing program file"
            "${TEMPLEX_CLI}" --program "${WORK_DIR}/no_such.vada"
            --facts "${DATA_DIR}/facts.csv")
expect_exit(1 "malformed program"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/facts.csv"
            --facts "${DATA_DIR}/facts.csv")

# --- a workload big enough that deadlines actually bite -----------------
# Transitive closure over a 260-edge chain: a few hundred rounds and ~n^3
# match work, far beyond a 1ms budget on any machine.
set(big_program "${WORK_DIR}/closure.vada")
file(WRITE "${big_program}" "@goal Path.
base: Edge(x, y) -> Path(x, y).
step: Path(x, z), Edge(z, y) -> Path(x, y).
")
set(big_facts "${WORK_DIR}/edges.csv")
set(lines "")
foreach(i RANGE 1 260)
  math(EXPR j "${i} + 1")
  string(APPEND lines "Edge,\"N${i}\",\"N${j}\"\n")
endforeach()
file(WRITE "${big_facts}" "${lines}")

# --- 4: deadline exceeded ----------------------------------------------
expect_exit(4 "deadline exceeded"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}" --deadline-ms 1)

# --- kill-and-resume smoke ---------------------------------------------
# Reference: uninterrupted run, chase graph as JSON.
expect_exit(0 "reference run"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}"
            --dump-json "${WORK_DIR}/reference.json")

# Killed run: a budget long enough to commit rounds, short enough (on most
# machines) to die mid-chase. Either outcome is legitimate; what the smoke
# pins is that the checkpoint directory afterwards resumes to the exact
# same graph.
set(ckpt_dir "${WORK_DIR}/ckpt")
execute_process(COMMAND "${TEMPLEX_CLI}" --program "${big_program}"
                        --facts "${big_facts}" --deadline-ms 60
                        --checkpoint-dir "${ckpt_dir}"
                        --checkpoint-every-rounds 5
                RESULT_VARIABLE kill_code
                OUTPUT_VARIABLE kill_out ERROR_VARIABLE kill_err)
if(NOT kill_code EQUAL 4 AND NOT kill_code EQUAL 0)
  message(FATAL_ERROR
          "killed run: expected exit 4 (or 0 on a fast machine), got "
          "${kill_code}\n${kill_out}\n${kill_err}")
endif()

expect_exit(0 "resumed run"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}"
            --checkpoint-dir "${ckpt_dir}" --resume
            --dump-json "${WORK_DIR}/resumed.json")

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/reference.json"
                        "${WORK_DIR}/resumed.json"
                RESULT_VARIABLE diff_code)
if(NOT diff_code EQUAL 0)
  message(FATAL_ERROR "resumed chase JSON differs from the reference run")
endif()

# No stray temp files once the resumed run has committed.
file(GLOB stray "${ckpt_dir}/*.tmp")
if(stray)
  message(FATAL_ERROR "stray temp files left behind: ${stray}")
endif()

# --- 1: config-hash mismatch on resume is an error, not corruption ------
expect_exit(1 "resume with a different program"
            "${TEMPLEX_CLI}" --program "${DATA_DIR}/control.vada"
            --facts "${DATA_DIR}/facts.csv"
            --checkpoint-dir "${ckpt_dir}" --resume)

# --- 6: corrupt checkpoint ---------------------------------------------
# Valid magic, garbage records: the CRC layer must call it kDataLoss.
file(WRITE "${ckpt_dir}/snapshot.tpx"
     "TPXCKPT\nthis is not a sequence of framed records")
expect_exit(6 "corrupt checkpoint"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}"
            --checkpoint-dir "${ckpt_dir}" --resume)

# --- 7: resource exhausted (--max-bytes hard watermark) -----------------
# A hard limit far below the EDB's own footprint trips on the first
# reconciliation; without a checkpoint directory the trip is still exit 7.
expect_exit(7 "max-bytes trip without checkpointing"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}" --max-bytes 4096)

# Save-and-stop: the trip commits a checkpoint, and resuming WITHOUT the
# budget ("on a bigger box") must reproduce the unbudgeted reference JSON
# byte-for-byte.
set(budget_ckpt "${WORK_DIR}/ckpt_budget")
expect_exit(7 "max-bytes trip with checkpointing"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}" --max-bytes 4096
            --checkpoint-dir "${budget_ckpt}")
expect_exit(0 "resume after budget trip"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}"
            --checkpoint-dir "${budget_ckpt}" --resume
            --dump-json "${WORK_DIR}/resumed_after_budget.json")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/reference.json"
                        "${WORK_DIR}/resumed_after_budget.json"
                RESULT_VARIABLE budget_diff)
if(NOT budget_diff EQUAL 0)
  message(FATAL_ERROR
          "chase JSON resumed after a budget trip differs from the "
          "unbudgeted reference run")
endif()

# --- 5: cancelled (watchdog-detected stall) -----------------------------
# The chaos knob burns 10s at the start of round 2 without heartbeating;
# a 150ms stall timeout must detect it long before that and cancel the
# run. The watchdog's crash path is stderr + event log, so only the exit
# code and the resume contract are pinned here.
set(stall_ckpt "${WORK_DIR}/ckpt_stall")
expect_exit(5 "watchdog stall"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}"
            --chaos-stall-ms 10000 --stall-timeout-ms 150
            --checkpoint-dir "${stall_ckpt}")
expect_exit(0 "resume after stall"
            "${TEMPLEX_CLI}" --program "${big_program}"
            --facts "${big_facts}"
            --checkpoint-dir "${stall_ckpt}" --resume
            --dump-json "${WORK_DIR}/resumed_after_stall.json")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/reference.json"
                        "${WORK_DIR}/resumed_after_stall.json"
                RESULT_VARIABLE stall_diff)
if(NOT stall_diff EQUAL 0)
  message(FATAL_ERROR
          "chase JSON resumed after a watchdog stall differs from the "
          "reference run")
endif()

message(STATUS "cli exit code convention holds")
