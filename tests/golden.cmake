# Golden digests of simulated outputs:
#
#   cmake -DCLI=<checkin_cli> -DFIG04=<fig04_breakdown>
#         -DFIG10=<fig10_checkpoint_time> -DTABLE=<digests.txt>
#         [-DUPDATE=ON] -P golden.cmake
#
# Runs each recipe below in the working directory and takes the
# SHA-256 of its stdout and of every file it writes. For the two
# figure benches it hashes the "runs" member of their BENCH file,
# which leaves out the wall-clock "sweep" object. Fails unless the
# digests equal TABLE line for line; UPDATE=ON rewrites TABLE
# instead. Run it from a fixed directory: stdout prints the artifact
# paths.
set(runs)
foreach(engine checkin lsm)
    list(APPEND runs a-${engine} e-${engine} f-${engine}
         openloop-${engine})
    set(args_a-${engine} --engine ${engine} --workload a --ops 20000
        --threads 32 --trace --attribution --telemetry)
    set(args_e-${engine} --engine ${engine} --workload e --ops 5000
        --threads 16 --telemetry)
    set(args_f-${engine} --engine ${engine} --workload f --ops 10000
        --threads 16 --attribution)
    set(args_openloop-${engine} --engine ${engine} --trigger adaptive
        --openloop 120000:mmpp --ops 20000 --telemetry --attribution)
endforeach()

set(lines)
foreach(run ${runs})
    file(REMOVE_RECURSE ${run})
    execute_process(
        COMMAND ${CLI} ${args_${run}} --artifact-dir ${run}
        TIMEOUT 120 RESULT_VARIABLE rc OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc STREQUAL 0)
        message(FATAL_ERROR "${run}: exit '${rc}':\n${err}")
    endif()
    string(SHA256 digest "${out}")
    list(APPEND lines "${digest}  ${run}/stdout")
    file(GLOB_RECURSE files RELATIVE ${CMAKE_CURRENT_BINARY_DIR}
         ${run}/*)
    list(SORT files)
    foreach(f ${files})
        file(SHA256 ${f} digest)
        list(APPEND lines "${digest}  ${f}")
    endforeach()
endforeach()

foreach(fig fig04_breakdown fig10_checkpoint_time)
    if(fig STREQUAL fig04_breakdown)
        set(bin ${FIG04})
    else()
        set(bin ${FIG10})
    endif()
    file(REMOVE_RECURSE ${fig})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env CHECKIN_BENCH_DIR=${fig} ${bin}
        TIMEOUT 120 RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc STREQUAL 0)
        message(FATAL_ERROR "${fig}: exit '${rc}':\n${err}")
    endif()
    file(READ ${fig}/BENCH_${fig}.json json)
    string(FIND "${json}" "\"runs\":" begin)
    string(FIND "${json}" "\n,\"sweep\":" end REVERSE)
    if(begin LESS 0 OR end LESS begin)
        message(FATAL_ERROR "${fig}: no runs member before the sweep")
    endif()
    math(EXPR len "${end} - ${begin}")
    string(SUBSTRING "${json}" ${begin} ${len} body)
    string(SHA256 digest "${body}")
    list(APPEND lines "${digest}  ${fig}/BENCH_${fig}.json#runs")
endforeach()

list(JOIN lines "\n" table)
if(UPDATE)
    file(WRITE ${TABLE} "${table}\n")
    message("wrote ${TABLE}")
    return()
endif()
file(STRINGS ${TABLE} want)
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
