// Generated by the Green-Marl → Pregel compiler from procedure "degree_stats".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class DegreeStatsComputation extends BasicComputation<IntWritable, DegreeStatsValue, NullWritable, DegreeStatsMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, DegreeStatsValue, NullWritable> vertex, Iterable<DegreeStatsMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 0: { // state0
                vertex.getValue()._t2 = 0L;
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    DegreeStatsMessage m = new DegreeStatsMessage();
                    sendMessage(e.getTargetVertexId(), m);
                }
                break;
            }
            case 2: { // state1_recv
                for (DegreeStatsMessage m : messages) {
                    vertex.getValue()._t2 += 1L;
                }
                vertex.getValue().indeg = vertex.getValue()._t2;
                aggregate("_r0_max=", new LongWritable(vertex.getValue().indeg));
                break;
            }
        }
    }
}

public class DegreeStatsMaster extends DefaultMasterCompute {
    int _state = 0;
    long mx;
    long _r0;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("mx", LongOverwriteAggregator.class);
        registerPersistentAggregator("_r0", LongOverwriteAggregator.class);
        registerAggregator("_r0_max=", LongMaxAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: { // vertex state "state0"
                    setAggregatedValue("_state", new IntWritable(0));
                    _state = 1; return;
                }
                case 1: {
                    _state = 2; break;
                }
                case 2: { // vertex state "state1_recv"
                    setAggregatedValue("_state", new IntWritable(2));
                    _state = 3; return;
                }
                case 3: {
                    _state = 4; break;
                }
                case 4: {
                    mx = 0L;
                    _r0 = -9223372036854775808L;
                    _state = 5; break;
                }
                case 5: {
                    _state = 6; break;
                }
                case 6: {
                    _r0 = ((LongWritable) getAggregatedValue("_r0_max=")).get();
                    _state = 7; break;
                }
                case 7: {
                    mx = _r0;
                    // procedure result: mx
                    haltComputation(); return;
                    haltComputation(); return;
                }
            }
        }
    }
}

public class DegreeStatsValue implements Writable {
    public long indeg;
    public long _t2;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeLong(indeg);
        out.writeLong(_t2);
    }
    public void readFields(DataInput in) throws IOException {
        indeg = in.readLong();
        _t2 = in.readLong();
    }
}

public class DegreeStatsMessage implements Writable {
    public void write(DataOutput out) throws IOException {
    }
    public void readFields(DataInput in) throws IOException {
    }
}
