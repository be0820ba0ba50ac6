# Golden digests of simulated outputs:
#
#   cmake -DCLI=<checkin_cli> -DBENCH=<directory of the bench binaries>
#         -DTABLE=<digests.txt> [-DGROUP=cli|figures|benches]
#         [-DUPDATE=ON] -P golden.cmake
#
# Runs the recipes of GROUP (every group when GROUP is unset) in the
# working directory, each with CHECKIN_BENCH_DIR set to its own
# directory, and takes the SHA-256 of what it simulates: its stdout,
# every file it writes, or the "runs" member of its BENCH file. A
# runs:<name> hash ends the member before the wall-clock "sweep"
# object; an untimed:<name> hash takes it to the end of the file and
# removes every "eventsPerSec" and "wallSeconds" field. Fails unless
# the digests equal TABLE's lines of those recipes; UPDATE=ON runs
# every group and rewrites TABLE instead. Run it from a fixed
# directory: stdout prints the artifact paths.
cmake_minimum_required(VERSION 3.16) # quoted if() operands stay strings

# cli: checkin_cli bundles, stdout and every file; fig04 and fig10.
set(runs_cli)
foreach(engine checkin lsm)
    list(APPEND runs_cli a-${engine} e-${engine} f-${engine}
         openloop-${engine})
    set(cmd_a-${engine} ${CLI} --engine ${engine} --workload a
        --ops 20000 --threads 32 --trace --attribution --telemetry)
    set(cmd_e-${engine} ${CLI} --engine ${engine} --workload e
        --ops 5000 --threads 16 --telemetry)
    set(cmd_f-${engine} ${CLI} --engine ${engine} --workload f
        --ops 10000 --threads 16 --attribution)
    set(cmd_openloop-${engine} ${CLI} --engine ${engine} --trigger
        adaptive --openloop 120000:mmpp --ops 20000 --telemetry
        --attribution)
    foreach(run a e f openloop)
        list(APPEND cmd_${run}-${engine} --artifact-dir ${run}-${engine})
        set(hash_${run}-${engine} stdout files)
    endforeach()
endforeach()

# figures: the paper's figure benches.
set(runs_figures fig03_motivation fig08_write_amp fig09_tail_latency
    fig11_throughput_latency fig12_interval_sensitivity
    fig13_mapping_unit)

foreach(fig fig04_breakdown fig10_checkpoint_time ${runs_figures})
    set(cmd_${fig} ${BENCH}/${fig})
    set(hash_${fig} runs:${fig})
endforeach()
list(APPEND runs_cli fig04_breakdown fig10_checkpoint_time)

# benches: the other benches, the crash demo, CI's cluster bundle and
# the cluster scaling grid.
set(runs_benches ablation_checkin ext_workloads engine_compare openloop
    fault_sweep recovery_time timeline_latency crash cluster
    cluster_scaling)
foreach(bench ablation_checkin ext_workloads)
    set(cmd_${bench} ${BENCH}/${bench})
    set(hash_${bench} runs:${bench})
endforeach()
set(cmd_engine_compare ${BENCH}/engine_compare --quick)
set(hash_engine_compare runs:engines)
set(cmd_openloop ${BENCH}/openloop --quick)
set(hash_openloop runs:openloop)
set(cmd_fault_sweep ${BENCH}/fault_sweep --quick)
set(hash_fault_sweep runs:fault)
foreach(bench recovery_time timeline_latency)
    set(cmd_${bench} ${BENCH}/${bench})
    set(hash_${bench} stdout)
endforeach()
set(cmd_crash ${CLI} crash)
set(hash_crash stdout)
set(cmd_cluster ${CLI} --preset cluster --ops 6000 --openloop 150000
    --telemetry --artifact-dir cluster)
set(hash_cluster stdout files)
# The policy grid records its synchronizer thread count, which
# defaults to the core count.
set(cmd_cluster_scaling CHECKIN_JOBS=2 ${BENCH}/cluster_scaling --quick)
set(hash_cluster_scaling untimed:cluster)

if(UPDATE OR NOT GROUP)
    set(groups cli figures benches)
else()
    set(groups ${GROUP})
endif()
set(runs)
foreach(group ${groups})
    if(NOT DEFINED runs_${group})
        message(FATAL_ERROR "unknown golden group '${group}'")
    endif()
    list(APPEND runs ${runs_${group}})
endforeach()

set(lines)
foreach(run ${runs})
    file(REMOVE_RECURSE ${run})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env CHECKIN_BENCH_DIR=${run}
                ${cmd_${run}}
        TIMEOUT 300 RESULT_VARIABLE rc OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc STREQUAL 0)
        message(FATAL_ERROR "${run}: exit '${rc}':\n${err}")
    endif()
    foreach(what ${hash_${run}})
        if(what STREQUAL "stdout")
            string(SHA256 digest "${out}")
            list(APPEND lines "${digest}  ${run}/stdout")
        elseif(what STREQUAL "files")
            file(GLOB_RECURSE written RELATIVE ${CMAKE_CURRENT_BINARY_DIR}
                 ${run}/*)
            list(SORT written)
            foreach(f ${written})
                file(SHA256 ${f} digest)
                list(APPEND lines "${digest}  ${f}")
            endforeach()
        else()
            string(REGEX MATCH "^(runs|untimed):(.+)$" kind "${what}")
            set(kind ${CMAKE_MATCH_1})
            set(json_file ${run}/BENCH_${CMAKE_MATCH_2}.json)
            file(READ ${json_file} json)
            string(FIND "${json}" "\"runs\":" begin)
            if(kind STREQUAL "runs")
                string(FIND "${json}" "\n,\"sweep\":" end REVERSE)
            else()
                string(LENGTH "${json}" end)
            endif()
            if(begin LESS 0 OR end LESS begin)
                message(FATAL_ERROR
                        "${json_file}: no runs member before the sweep")
            endif()
            math(EXPR len "${end} - ${begin}")
            string(SUBSTRING "${json}" ${begin} ${len} body)
            if(kind STREQUAL "untimed")
                string(REGEX REPLACE
                       ",\"(eventsPerSec|wallSeconds)\":[^,}]*" ""
                       body "${body}")
            endif()
            string(SHA256 digest "${body}")
            list(APPEND lines "${digest}  ${json_file}#runs")
        endif()
    endforeach()
endforeach()

list(JOIN lines "\n" table)
if(UPDATE)
    file(WRITE ${TABLE} "${table}\n")
    message("wrote ${TABLE}")
    return()
endif()
# TABLE's lines of this group's recipes: the path up to its first '/'
# names the recipe.
file(STRINGS ${TABLE} all)
set(want)
foreach(line ${all})
    string(REGEX REPLACE "^[0-9a-f]+  ([^/]+)/.*$" "\\1" run "${line}")
    list(FIND runs "${run}" at)
    if(at GREATER_EQUAL 0)
        list(APPEND want "${line}")
    endif()
endforeach()
set(failed FALSE)
foreach(line ${lines})
    list(FIND want "${line}" at)
    if(at LESS 0)
        message("changed or new: ${line}")
        set(failed TRUE)
    endif()
endforeach()
foreach(line ${want})
    list(FIND lines "${line}" at)
    if(at LESS 0)
        message("expected, not produced: ${line}")
        set(failed TRUE)
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "simulated outputs differ from ${TABLE}; a "
                        "change that moves them on purpose regenerates "
                        "it with: cmake --build <build> --target "
                        "golden_digests")
endif()
list(LENGTH lines n)
message("${n} digests match ${TABLE}")
